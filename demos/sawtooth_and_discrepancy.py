#!/usr/bin/env python3
# The sawtooth approximation contract and the explicit-constant discrepancy
# inequality, checked on dense grids.

import numpy as np

from pslab import discrepancy_lhs, erdos_turan_rhs, psi, vaaler_kernel


def main() -> None:
    print("== degree-H sawtooth approximation ==")
    print("|psi(t) - sum c_h e(th)| <= sum d_h e(th) pointwise, with")
    print("|c_h| <= 1/(pi h) and d_h <= 1/(H+1):")
    # 40005 points keep len(grid) * H at H = 1000 under the kernels' SAWTOOTH_CELLS_GUARD
    grid = np.concatenate(
        [np.linspace(0, 1, 40001, endpoint=False), [1e-12, 1e-9, 1 - 1e-9, 1 - 1e-12]]
    )
    for H in (1, 10, 100, 1000):
        k = vaaler_kernel(H)
        err = np.abs(psi(grid) - k.approx(grid))
        maj = k.majorant(grid)
        print(
            f"  H={H:>4}: max error={err.max():.6f} max(err - majorant)={np.max(err - maj):+.2e} "
            f"majorant(0)={maj[0]:.4f}"
        )
    print("  (the error at integers is exactly 1/2; the majorant matches it there)")

    print("\n== explicit-constant discrepancy bound ==")
    print("the count deviation #( {t_k} <= beta ) - K beta against")
    print("K/(H+1) + 3 sum_h |S_h|/h, for the rotation t_k = k sqrt(2):")
    K = 10**4
    t = (np.arange(1, K + 1) * np.sqrt(2.0)) % 1.0
    for H in (10, 100, 1000):
        rhs = erdos_turan_rhs(t, H)
        worst = max(abs(discrepancy_lhs(t, b)) for b in np.linspace(0.01, 0.99, 99))
        print(f"  H={H:>4}: worst |lhs| over beta grid = {worst:5.1f}  rhs = {rhs:8.1f}")

    print("\nthe same for the value sequence fractional parts -(k^(2/3)):")
    ks = np.arange(1, K + 1, dtype=np.float64)
    tk = -(ks ** (2.0 / 3.0))
    rhs = erdos_turan_rhs(tk, 100)
    worst = max(abs(discrepancy_lhs(tk, b)) for b in np.linspace(0.01, 0.99, 99))
    print(f"  H= 100: worst |lhs| = {worst:5.1f}  rhs = {rhs:8.1f}")


if __name__ == "__main__":
    main()
