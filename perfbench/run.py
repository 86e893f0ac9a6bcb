"""pslab benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload value_stream --seed 1 --seconds 60 --trace 0

Run from the root of a pslab checkout; pslab is imported from ``src/``.
The load is closed-loop with one client: passes run one after another,
each in a fresh interpreter, so no pass is served by a cache an earlier
pass filled (``psprimes`` keeps an ``lru_cache``) and every pass pays the
cold start a command-line user pays.

``--trace 0``: passes until ``--seconds`` would be exceeded (at least
three), each after a set-up-only launch, so set-up is sampled across the
whole run.  Reports the median ``wall_s``, ``setup_s`` and ``peak_rss_mb``.

``--trace 1``: one untraced pass, one pass with span wrappers and one with
tracemalloc peaks, then further untraced/spans pairs while ``--seconds``
allows.  Reports every per-layer metric named in BENCHMARK.json (0 where
the workload does not call that layer) and the tracing overhead.

Every call's output is checked after its pass; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` where
failed / attempted is the error rate.  The full record of the run (every
pass, per-call times, output digests, problems) goes to
``.perfbench/<workload>-seed<seed>-trace<k>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RUN_BUDGET_S = 170  # a run, set-up included, must end well within 180 s
MIN_PASSES = 3


class Runner:
    """Launches passes of one workload and keeps their records."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t_start = time.monotonic()
        self.records: list[dict] = []
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            # numpy's BLAS stays on one thread: only eval_sum(threads=2) uses a second
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def launch(self, mode: str, spans_out: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        timeout = max(5.0, RUN_BUDGET_S - self.elapsed())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True, timeout=timeout)
            lines = proc.stdout.strip().splitlines()
            rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            error = None if rec else f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rec, error = None, f"timed out after {timeout:.0f} s"
        except json.JSONDecodeError as exc:
            rec, error = None, f"unreadable result: {exc}"
        if rec is None:
            rec = {"error": error, "attempted": 1, "failed": 1}
        rec["mode"] = mode
        rec["launch_s"] = time.monotonic() - t0
        self.records.append(rec)
        return rec

    def passes(self, mode: str) -> list[dict]:
        return [r for r in self.records if r["mode"] == mode and "wall_s" in r]

    def tally(self) -> tuple[int, int, bool]:
        runs = [r for r in self.records if r["mode"] != "setup" or "error" in r]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        return attempted, failed, failed == 0 and all("error" not in r for r in self.records)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    durations = []
    while True:
        t0 = runner.elapsed()
        runner.launch("setup")
        rec = runner.launch("plain")
        durations.append(runner.elapsed() - t0)
        done = len(durations) >= MIN_PASSES
        if "error" in rec or (done and runner.elapsed() + median(durations) > seconds):
            break
    plain = runner.passes("plain")
    return {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in runner.records if "setup_s" in r]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def traced(runner: Runner, seconds: float, per_layer: list[str]) -> dict[str, float]:
    spans_out = OUT / f"spans-{runner.workload}.npz"
    runner.launch("plain")
    runner.launch("spans", spans_out)
    runner.launch("memory")
    pair = sum(r["launch_s"] for r in runner.records[:2])
    while runner.elapsed() + pair <= seconds and not any("error" in r for r in runner.records):
        runner.launch("plain")
        runner.launch("spans", spans_out)
    spans = runner.passes("spans")
    layers: dict[str, list[float]] = {}
    for r in spans + runner.passes("memory"):
        for k, v in r["layers"].items():
            layers.setdefault(k, []).append(v)
    metrics = {name: median(layers.get(name, [])) for name in per_layer}
    plain_wall = median([r["wall_s"] for r in runner.passes("plain")])
    spans_wall = median([r["wall_s"] for r in spans])
    if "trace.overhead_frac" in metrics:
        metrics["trace.overhead_frac"] = spans_wall / plain_wall - 1.0 if plain_wall else 0.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pslab" / "__init__.py").is_file():
        print(f"no pslab sources at {SRC}; run from a pslab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    runner = Runner(args.workload, args.seed)
    if args.trace:
        values = traced(runner, args.seconds, list(units))
    else:
        values = end_to_end(runner, args.seconds)
    attempted, failed, correct = runner.tally()

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    first = next((r for r in runner.records if "digests" in r), {})
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "metrics": values, "digests": first.get("digests", {}),
                                  "passes": runner.records}, indent=1))
    for r in runner.records:
        for name, found in r.get("problems", {}).items():
            print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
        if "error" in r:
            print(f"FAILED {r['mode']} pass: {r['error']}", file=sys.stderr)

    n = len(runner.passes("spans" if args.trace else "plain"))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: medians of {n} passes "
          f"({sum('setup_s' in r for r in runner.records)} set-ups), "
          f"error_rate={failed / max(attempted, 1):g} ({failed}/{attempted} calls), record {record}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
