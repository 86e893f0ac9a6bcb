#!/usr/bin/env python3
# Empirical statistics of floor(n^c): squarefree density against 6/pi^2,
# the Chebyshev-style log sum, smooth-value counts, and the distribution of
# the largest prime factor.

from fractions import Fraction as Fr

import numpy as np

from pslab import (
    ExponentC,
    GuardError,
    chebyshev_sum,
    large_pf_exceed,
    lpf_exponent,
    smooth_count,
    square_divisor_sum,
    squarefree_density,
)


def main() -> None:
    c = ExponentC.parse("3/2")
    print("== squarefree density of floor(n^1.5) ==")
    print("the ratio observed/((6/pi^2) x) drifts toward 1 roughly like x^(-1/4):")
    for x in (10**4, 10**5, 10**6):
        r = squarefree_density(x, c)
        print(f"  x={x:>8}: observed={int(r.observed):>7} ratio={r.ratio:.5f} "
              f"({r.runtime_ms} ms)")

    print("\n== Chebyshev-style sum over distinct prime divisors ==")
    print("one trial-division pass factors every value up to 10^12, so any c in (1, 2) runs:")
    for cs in ("6/5", "19/10"):
        for x in (10**4, 10**5):
            r = chebyshev_sum(x, ExponentC.parse(cs))
            print(f"  c={cs:>5} x={x:>7}: observed={r.observed:14.1f} "
                  f"reference=c*x*(log x - 1)={r.reference:14.1f} ratio={r.ratio:.4f} "
                  f"({r.runtime_ms} ms)")

    print("\n== smooth values: P(floor(n^c)) <= n^eps ==")
    c1110 = ExponentC.parse("11/10")
    for eps in (0.3, 0.5, 0.7, 1.0):
        r = smooth_count(10**4, c1110, eps)
        print(f"  eps={eps:.1f}: count={int(r.observed):>6} (shape reference "
              f"x^(1-eps) = {r.reference:.0f})")

    print("\n== large prime factors ==")
    theta = float(lpf_exponent(Fr(3, 2)))
    r = large_pf_exceed(10**5, c, theta, 0.05)
    print(f"  fraction of n <= 1e5 with P(floor(n^1.5)) > n^(theta-0.05), "
          f"theta={theta:.4f}: {r.observed / 10**5:.4f}")
    dec = ", ".join(f"{k}: {r.extras[f'd{k}0']:.3f}" for k in range(1, 10))
    print(f"  deciles of log P / log n: {dec} ({r.runtime_ms} ms)")
    try:
        large_pf_exceed(10**6, ExponentC.parse("5/2"), theta, 0.05)
    except GuardError as exc:
        print(f"  c=5/2, x=1e6 is refused before any value is generated: {exc}")

    print("\n== square divisibility in dyadic blocks ==")
    for D in (2, 5, 20):
        lhs, rhs = square_divisor_sum(10**5, c, D, np.ones_like)
        print(f"  d ~ {D:>2}: direct count={lhs:10.1f} predicted x*sum 1/d^2={rhs:10.1f}")


if __name__ == "__main__":
    main()
