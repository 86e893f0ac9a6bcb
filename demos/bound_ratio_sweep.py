#!/usr/bin/env python3
# Ratio studies: direct |S| against every closed-form bound, over the same
# corpora the test fixtures freeze.  --write-fixtures regenerates
# tests/fixtures/bound_envelopes.json from the sweep.

import argparse
import json
import math
from pathlib import Path

import numpy as np

from pslab import (
    MonomialPhase,
    SumInstance,
    balance_terms,
    bound_kusmin_landau,
    bound_second_derivative,
    bound_third_derivative,
    bound_trilinear,
    eval_sum,
)

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "bound_envelopes.json"

A2 = [0.001, 0.00316, 0.01, 0.0316, 0.1]
A3 = [1e-5, 1e-4, 1e-3, 1e-2]
NS = [100, 316, 1000, 3162, 10000]
KL_LENGTHS = [10, 100, 1000, 12345]
TRILINEAR_SEED, TRILINEAR_COUNT = 20803, 40
BALANCE_SEED, BALANCE_COUNT = 8480, 100


def sweep_second() -> float:
    worst = 0.0
    for A in A2:
        for N in NS:
            s = abs(eval_sum(SumInstance(MonomialPhase(A, ((0, 2.0),)), ((N, True),))))
            worst = max(worst, s / bound_second_derivative(N, 2 * A))
    return worst


def sweep_third() -> float:
    worst = 0.0
    for A in A3:
        for N in NS:
            s = abs(eval_sum(SumInstance(MonomialPhase(A, ((0, 3.0),)), ((N, True),))))
            worst = max(worst, s / bound_third_derivative(N, 6 * A))
    return worst


def sweep_kusmin_landau() -> float:
    bound = bound_kusmin_landau(1.0, 3 / 8)
    worst = 0.0
    for N in KL_LENGTHS:
        s = abs(eval_sum(SumInstance(MonomialPhase(3 / 8, ((0, 1.0),)), ((N, False),))))
        worst = max(worst, s / bound)
    return worst


def sweep_trilinear() -> float:
    rng = np.random.default_rng(TRILINEAR_SEED)
    worst = 0.0
    for _ in range(TRILINEAR_COUNT):
        M = int(rng.integers(1, 50))
        M1 = int(rng.integers(1, 50))
        M2 = int(rng.integers(1, max(2, 10**6 // (M * M1 * 8) + 1)))
        alpha = float(rng.choice([-1.5, -0.5, 0.5, 1.5, 2.5, 3.5]) + rng.uniform(-0.2, 0.2))
        beta = float(rng.uniform(0.2, 1.8) * rng.choice([-1, 1]))
        gamma_e = float(rng.uniform(0.2, 1.8) * rng.choice([-1, 1]))
        F_target = float(10.0 ** rng.uniform(-2, 4))
        scale = (1.5 * M) ** alpha * (1.5 * M1) ** beta * (1.5 * M2) ** gamma_e
        inst = SumInstance(
            MonomialPhase(F_target / abs(scale), ((0, alpha), (1, beta), (2, gamma_e))),
            ((M, True), (M1, True), (M2, True)),
        )
        N = M1 * M2
        F = abs(inst.phase.A) * (2 * M) ** alpha * (2 * M1) ** beta * (2 * M2) ** gamma_e
        ratio = abs(eval_sum(inst)) / (bound_trilinear(M, N, abs(F)) * (M * N) ** 0.05)
        worst = max(worst, ratio)
    return worst


def sweep_balance() -> float:
    rng = np.random.default_rng(BALANCE_SEED)
    worst = 0.0
    for _ in range(BALANCE_COUNT):
        J, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        C = [(float(10 ** rng.uniform(-2, 3)), float(rng.uniform(0.2, 3))) for _ in range(J)]
        D = [(float(10 ** rng.uniform(-2, 3)), float(rng.uniform(0.2, 3))) for _ in range(K)]
        qhi = float(10 ** rng.uniform(0.5, 4))
        qlo = float(qhi * 10 ** rng.uniform(-3, -0.1)) if rng.random() < 0.5 else None
        bound, q1 = balance_terms(C, D, qhi, qlo)
        L = sum(Cj * q1**cj for Cj, cj in C) + sum(Dk * q1**-dk for Dk, dk in D)
        worst = max(worst, L / ((J * K + J + K) * bound))
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--write-fixtures", action="store_true")
    args = ap.parse_args()

    print("== ratio studies: direct |S| vs closed-form bounds ==")
    r2 = sweep_second()
    print(f"second-derivative bound : worst |S|/bound = {r2:.4f} over "
          f"{len(A2)}x{len(NS)} (A, N) grid")
    r3 = sweep_third()
    print(f"third-derivative bound  : worst |S|/bound = {r3:.4f}")
    rk = sweep_kusmin_landau()
    print(f"Kusmin-Landau (slope 3/8): worst |S|/cot(3 pi/16) = {rk:.4f} "
          f"(true inequality, so <= 1)")
    rt = sweep_trilinear()
    print(f"nine-term trilinear bound: worst |S|/((MN)^0.05 bound) = {rt:.4f} "
          f"over {TRILINEAR_COUNT} seeded instances")
    rb = sweep_balance()
    print(f"split-parameter witness : worst L(Q1)/((JK+J+K) bound) = {rb:.4f} "
          f"over {BALANCE_COUNT} seeded term sets")

    g = abs(eval_sum(SumInstance(MonomialPhase(1 / 5, ((0, 2.0),)), ((5, False),))))
    print(f"\nquadratic Gauss sum check: |S| = {g:.12f} vs sqrt(5) = {math.sqrt(5):.12f}")

    if args.write_fixtures:
        fixtures = {
            "second_derivative": {
                "A_values": A2, "N_values": NS,
                "envelope": 2.0, "swept_max_ratio": round(r2, 4),
            },
            "third_derivative": {
                "A_values": A3, "N_values": NS,
                "envelope": 1.0, "swept_max_ratio": round(r3, 4),
            },
            "kusmin_landau": {
                "lengths": KL_LENGTHS, "slope": [3, 8],
                "envelope": 1.000000001, "swept_max_ratio": round(rk, 4),
            },
            "trilinear": {
                "seed": TRILINEAR_SEED, "count": TRILINEAR_COUNT, "epsilon": 0.05,
                "envelope": 1.0, "swept_max_ratio": round(rt, 4),
            },
            "balance": {"seed": BALANCE_SEED, "count": BALANCE_COUNT},
            "main_term_corpus": {"seed": 1939, "count": 50, "swept_max_rel_gap": 5.8e-16},
        }
        FIXTURE.write_text(json.dumps(fixtures, indent=2) + "\n")
        print(f"\nwrote {FIXTURE}")


if __name__ == "__main__":
    main()
