"""Record the traced numbers behind ROADMAP's "Measured baseline" table.

    python3 perfbench/baseline.py            # writes perfbench/baseline.json

For each workload it runs one untraced and one spans pass (seed 0) and
maps every table row a workload calls to the measured time: the untraced
time of the call, and the traced span time of the layer the row names.
Rows whose size differs from the table's say so in ``note``.
"""
from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from run import OUT, Runner

HERE = Path(__file__).resolve().parent

# (row as in the table, table value, workload, untraced call(s), span, which span, note)
ROWS = [
    ("squarefree_density(1e6, 3/2)", "1.60 s; 1.51 s in is_squarefree_bulk", "value_stream",
     ["squarefree_density"], "arith.is_squarefree_bulk", "all", ""),
    ("chebyshev_sum(1e6, 8/7)", "2.15 s", "value_stream",
     ["chebyshev_sum"], "experiments.chebyshev_sum", "all", ""),
    ("large_pf_exceed(1e5, 8/5)", "2.85 s", "value_stream",
     ["large_pf_exceed"], "experiments.large_pf_exceed", "all", ""),
    ("ps_primes_up_to(1e7, 21/20)", "3.49 s", "enumeration",
     ["brun_titchmarsh_report.3,1"], "psprimes.ps_primes_up_to", "first",
     "the cold call, inside the first brun_titchmarsh_report"),
    ("carmichael_numbers_up_to(1e7)", "2.33-3.6 s", "enumeration",
     ["search_ps_carmichael"], "carmichael.carmichael_numbers_up_to", "all",
     "untraced time is the whole search_ps_carmichael call"),
    ("eval_sum, 1e7 terms", "614 ms", "value_stream",
     ["eval_sum.t1"], "expsum.eval_sum.t1", "all", ""),
    ("eval_sum, 1e7 terms, threads=2", "510 ms", "value_stream",
     ["eval_sum.t2"], "expsum.eval_sum.t2", "all", ""),
    ("vaaler_kernel(1000).approx on a 1e5 grid", "1.72 s", "value_stream",
     ["vaaler.approx"], "sawtooth.VaalerKernel.approx", "all", "measured at H = 500"),
    ("erdos_turan_rhs(K=1e5, H=1000)", "4.44 s", "value_stream",
     ["erdos_turan_rhs"], "sawtooth.erdos_turan_rhs", "all", "measured at H = 500"),
    ("floor_pow_bulk, c=3/2, n~2.8e8", "76 ms per 1e5 values", "enumeration",
     ["floor_pow_bulk.float_repair"], "pscore.floor_pow_bulk", "call.floor_pow_bulk.float_repair",
     "a 1e6-value window"),
    ("floor_pow_bulk, c=3/2, n~3e8", "125 ms per 1e5 values", "enumeration",
     ["floor_pow_bulk.bigint"], "pscore.floor_pow_bulk", "call.floor_pow_bulk.bigint",
     "a 1e6-value window"),
]


def span_seconds(spans: dict, name: str, which: str) -> float:
    """Total duration of the spans called ``name``: all of them, the first,
    or those directly under the top-level span called ``which``."""
    names = json.loads(str(spans["names"]))
    if name not in names:
        return 0.0
    sel = spans["name"] == names.index(name)
    if which == "first":
        sel = np.flatnonzero(sel)[:1]
    elif which != "all":
        top = np.flatnonzero(spans["name"] == names.index(which))
        sel &= np.isin(spans["parent"], top)
    return float((spans["end"][sel] - spans["start"][sel]).sum())


def main() -> int:
    measured = {}
    for w in sorted({row[2] for row in ROWS}):
        runner = Runner(w, 0)
        plain = runner.launch("plain")
        path = OUT / f"baseline-spans-{w}.npz"
        traced = runner.launch("spans", path)
        if "error" in plain or "error" in traced or plain["failed"] or traced["failed"]:
            print(f"{w}: pass failed", file=sys.stderr)
            return 1
        with np.load(path) as z:
            measured[w] = (plain, dict(z))
    rows = []
    for row, table, w, calls, span, which, note in ROWS:
        plain, spans = measured[w]
        rows.append({"row": row, "table": table, "workload": w,
                     "untraced_s": round(sum(plain["call_s"][c] for c in calls), 4),
                     "traced_span": span,
                     "traced_s": round(span_seconds(spans, span, which), 4),
                     "note": note})
    machine = {"cpus": os.cpu_count(), "machine": platform.machine(),
               "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
               "python": platform.python_version(), "numpy": np.__version__}
    out = HERE / "baseline.json"
    out.write_text(json.dumps({"machine": machine, "seed": 0, "rows": rows}, indent=1) + "\n")
    for r in rows:
        print(f"{r['row']:<45} table {r['table']:<38} untraced {r['untraced_s']:>7.3f} s"
              f"  traced {r['traced_s']:>7.3f} s  {r['note']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
