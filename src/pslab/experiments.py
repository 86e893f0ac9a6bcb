"""Theorem-level empirical harnesses over the value sequence floor(n^c):
squarefree density, the Chebyshev-style double sum, smooth and large
prime-factor statistics, square-divisibility sums, residue
equidistribution, and the dyadic convolution count.

Each harness returns an ExperimentReport pairing the observed value with
its theoretical reference; only main-term agreement is asserted anywhere
(the error-term exponents carry non-effective constants).
"""
from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import fsum, isfinite, log
from typing import Callable, Union

import numpy as np

from .arith import SQUAREFREE_BULK_MAX, factor_stream, is_squarefree_bulk
from .arith import factorize, primes_up_to  # unused here; perfbench/tracing.py wraps these names
from .errors import GuardError, ValidationError, check_range
from .pscore import ExponentC, exceeds, in_sorted, value_blocks
from .pscore import floor_pow_bulk  # unused here; perfbench/tracing.py wraps this name

SIX_OVER_PI_SQUARED = 6.0 / np.pi**2
# P > n^e is decided in float64 only where P is off n^e by more than this
# relative band.  Where n^e is a finite, normal float64, |e log n| < 710, so
# rounding e to float64 moves it by under 1e-13 relative, and pow adds a few
# ulp; converting an int64 P errs by at most 2^-53 relative.
POWER_BAND = 2.0**-30
# convolution_count's work: K Python iterations (~13 us each) and K*L sorted
# lookups (~37 ns each) on 2 cores; each bound alone is about 0.7 s
CONVOLUTION_K_GUARD = 5 * 10**4
CONVOLUTION_LOOKUP_GUARD = 2 * 10**7
CONVOLUTION_EPS = 0.01  # the dyadic box: K = x^(c-1+6 eps), L = x^(1-6 eps)/5
# square_divisor_sum's work: one remainder per value and d, x*D in all;
# 2*10^9 is x = 10^6 at D = 2000, about 12 s
SQUARE_DIVISOR_WORK_GUARD = 2 * 10**9
Exponent = Union[float, Fraction]


@dataclass
class ExperimentReport:
    """One experiment row: inputs, observed value, reference value, ratio."""

    experiment: str
    params: dict
    observed: float
    reference: float
    runtime_ms: int = 0
    extras: dict = field(default_factory=dict)
    ratio: float = field(init=False)

    def __post_init__(self) -> None:
        self.ratio = self.observed / self.reference if self.reference != 0 else float("nan")

    def to_csv_row(self) -> str:
        return ",".join(
            [
                self.experiment,
                json.dumps(self.params, sort_keys=True).replace(",", ";"),
                repr(self.observed),
                repr(self.reference),
                repr(self.ratio),
                str(self.runtime_ms),
            ]
        )

    def to_json(self) -> str:
        obj = {
            "experiment": self.experiment,
            "params": self.params,
            "observed": self.observed,
            "reference": self.reference,
            "ratio": self.ratio,
            "runtime_ms": self.runtime_ms,
        }
        if self.extras:
            obj["extras"] = self.extras
        return json.dumps(obj, sort_keys=True)

    CSV_HEADER = "experiment,param_json,observed,reference,ratio,runtime_ms"


def _check_values(x: int, c: ExponentC) -> None:
    """Refuse, before generating anything, values beyond factor_stream:
    floor(x^c) > M exactly when M + 1 > x^c fails."""
    if not exceeds(SQUAREFREE_BULK_MAX + 1, x, Fraction(c.p, c.q)):
        raise GuardError(f"floor({x}^{c}) exceeds the factorization guard {SQUAREFREE_BULK_MAX:.0e}")


def _ms_since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def squarefree_density(x: int, c: ExponentC) -> ExperimentReport:
    """#{n <= x : floor(n^c) squarefree} against the density (6/pi^2) x."""
    check_range(x, 1, 10**7, "squarefree")
    _check_values(x, c)
    if not (1 < Fraction(c.p, c.q) < Fraction(149, 87)):
        warnings.warn(f"c={c} outside (1, 149/87); the density claim is unproven there")
    t0 = time.perf_counter()
    observed = sum(int(np.count_nonzero(is_squarefree_bulk(v))) for v in value_blocks(1, x, c))
    return ExperimentReport(
        "squarefree_density", {"x": x, "c": str(c)}, float(observed), SIX_OVER_PI_SQUARED * x, _ms_since(t0)
    )


def chebyshev_sum(x: int, c: ExponentC) -> ExperimentReport:
    """sum_{n<=x} sum_{p | floor(n^c)} log p against c*x*(log x - 1).

    Each value block is factored with its own bound, the cube root of its
    largest value, and the log_terms of all blocks feed one math.fsum.  The
    reference keeps the second-order term of sum log(floor(n^c))
    ~ c x (log x - 1); at desk scale the naive c x log x would hide the
    convergence behind a ~7 percent offset.
    """
    check_range(x, 1, 10**6, "Chebyshev")
    _check_values(x, c)
    t0 = time.perf_counter()
    observed = fsum(chain.from_iterable(factor_stream(v).log_terms() for v in value_blocks(1, x, c)))
    return ExperimentReport(
        "chebyshev_sum", {"x": x, "c": str(c)}, observed, c.as_float * x * (log(x) - 1.0), _ms_since(t0)
    )


def _exceeds_power(P: np.ndarray, ns: np.ndarray, e: Fraction) -> np.ndarray:
    """P > n^e elementwise, for integers P >= 1 and int64 n >= 1, decided
    exactly.

    The float64 comparison decides every element whose P lies outside a
    relative POWER_BAND around n^e; the scalar pscore.exceeds decides the rest.
    """
    f = ns.astype(np.float64) ** float(e)
    Pf = P.astype(np.float64)
    out = Pf > f
    band = (np.abs(Pf - f) <= POWER_BAND * f) & np.isfinite(f)
    for i in np.flatnonzero(band):
        out[i] = exceeds(int(P[i]), int(ns[i]), e)
    return out


def _largest_primes(x: int, c: ExponentC) -> tuple[np.ndarray, np.ndarray]:
    """n = 2..x and P(floor(n^c)), the stream of smooth_count and large_pf_exceed,
    factored block by block; the deciles of large_pf_exceed read every P."""
    P = np.concatenate([factor_stream(v).largest_prime() for v in value_blocks(2, x, c)])
    return np.arange(2, x + 1, dtype=np.int64), P


def smooth_count(x: int, c: ExponentC, eps: Exponent) -> ExperimentReport:
    """#{2 <= n <= x : P(floor(n^c)) <= n^eps} against the shape x^(1-eps).

    eps is taken at its exact rational value (a float at its binary value),
    and the comparison with n^eps is exact.
    """
    if not (0 < eps <= 1):
        raise ValidationError(f"eps={eps} must lie in (0, 1]")
    check_range(x, 2, 10**6, "smooth-count")
    _check_values(x, c)
    t0 = time.perf_counter()
    ns, P = _largest_primes(x, c)
    observed = int(np.sum(~_exceeds_power(P, ns, Fraction(eps))))
    params, reference = {"x": x, "c": str(c), "eps": float(eps)}, float(x) ** (1.0 - float(eps))
    return ExperimentReport("smooth_count", params, float(observed), reference, _ms_since(t0))


def large_pf_exceed(x: int, c: ExponentC, theta: Exponent, eps: Exponent) -> ExperimentReport:
    """#{2 <= n <= x : P(floor(n^c)) > n^(theta-eps)} against reference x.

    theta - eps is taken at its exact rational value (floats at their
    binary values), and the comparison with n^(theta-eps) is exact.  The
    report's extras carry the deciles of log P(floor(n^c)) / log n, the
    empirical distribution behind the lower-bound exponent.
    """
    if not (isfinite(theta) and isfinite(eps)):
        raise ValidationError(f"theta={theta} and eps={eps} must be finite")
    check_range(x, 2, 10**6, "largest-prime")
    _check_values(x, c)
    t0 = time.perf_counter()
    ns, P = _largest_primes(x, c)
    observed = int(np.sum(_exceeds_power(P, ns, Fraction(theta) - Fraction(eps))))
    exponents = np.log(P.astype(np.float64)) / np.log(ns.astype(np.float64))
    deciles = {f"d{k}0": float(np.percentile(exponents, 10 * k)) for k in range(1, 10)}
    params = {"x": x, "c": str(c), "theta": float(theta), "eps": float(eps)}
    return ExperimentReport("large_pf_exceed", params, float(observed), float(x), _ms_since(t0), deciles)


def square_divisor_sum(
    x: int,
    c: ExponentC,
    D: int,
    z: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float]:
    """Direct count of d^2 | floor(n^c) over dyadic d ~ D, versus the
    predicted x * sum z_d / d^2.

    Returns (lhs, rhs).  The proposition's epsilon-ranges are surfaced as
    warnings so boundary behaviour stays probeable.
    """
    if D < 1:
        raise ValidationError("D must be >= 1")
    check_range(x, 1, 10**6, "square-divisor")
    e = Fraction(c.p, c.q)
    if exceeds(D, x, e / 2):
        raise ValidationError(f"D={D} exceeds x^(c/2)")
    check_range(x * D, 1, SQUARE_DIVISOR_WORK_GUARD, "square-divisor work", name="x*D")
    if exceeds(D, x, 2 - e):
        warnings.warn("D beyond x^(2-c): outside the proven main-term range")
    ds = np.arange(D + 1, 2 * D + 1, dtype=np.int64)
    zd = np.asarray(z(ds), dtype=np.float64)
    if zd.size and np.max(np.abs(zd)) > 2.0 * np.log(np.maximum(ds, 2)).max() + 1e-9:
        warnings.warn("weights exceed the 2 log d envelope")
    # (d^2, weight) in d order; each d's count adds up over the value blocks
    weighted = [(d * d, float(w)) for d, w in zip(ds.tolist(), zd) if w != 0.0]
    counts = [0] * len(weighted)
    for vals in value_blocks(1, x, c):
        for j, (dd, _) in enumerate(weighted):
            counts[j] += int(np.count_nonzero(vals % dd == 0))
    lhs = 0.0
    for (_, w), n in zip(weighted, counts):
        lhs += w * n
    rhs = float(x) * float(np.sum(zd / ds.astype(np.float64) ** 2))
    return lhs, rhs


def residue_equidistribution(N: int, c: ExponentC, q: int, a: int) -> ExperimentReport:
    """#{n ~ N : floor(n^c) = a (mod q)} against the uniform share N/q."""
    if q < 1:
        raise ValidationError("q must be >= 1")
    check_range(N, 1, 10**6, "residue", name="N")
    e = Fraction(c.p, c.q)
    if exceeds(q, N, (3 - e) / 6):
        raise GuardError(f"q={q} exceeds the admissible range N^((3-c)/6)")
    if not (Fraction(3, 2) < e < 2):
        warnings.warn(f"c={c} outside (3/2, 2); the equidistribution claim is unproven there")
    t0 = time.perf_counter()
    observed = sum(int(np.count_nonzero(v % q == a % q)) for v in value_blocks(N + 1, 2 * N, c))
    params = {"N": N, "c": str(c), "q": q, "a": a}
    return ExperimentReport("residue_equidistribution", params, float(observed), N / q, _ms_since(t0))


def convolution_count(
    x: int,
    c: ExponentC,
    predicate: Callable[[np.ndarray], np.ndarray],
) -> float:
    """sum_{n<=x} of the dyadic-box convolution R(n) = sum a_k a_l over
    k*l = floor(n^c), with K = x^(c-1+6 eps) and L = x^(1-6 eps)/5 at
    eps = CONVOLUTION_EPS.

    For each k with a nonzero weight, the products k*l are looked up in the
    generated values floor(n^c), n <= x, so a match is a value with a
    preimage n <= x by construction.  The products stay below
    4KL <= 0.8 x^c, inside the generated range.
    """
    check_range(x, 2, 10**5, "convolution")
    # exponents past 60 would overflow the float power; x^60 >= 2^60 is refused all the same
    K = max(int(float(x) ** min(c.as_float - 1.0 + 6.0 * CONVOLUTION_EPS, 60.0)), 1)
    L = max(int(float(x) ** (1.0 - 6.0 * CONVOLUTION_EPS) / 5.0), 1)
    check_range(K, 1, CONVOLUTION_K_GUARD, "convolution k-range", name="K")
    check_range(K * L, 1, CONVOLUTION_LOOKUP_GUARD, "convolution lookup", name="K*L")
    ks = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    ls = np.arange(L + 1, 2 * L + 1, dtype=np.int64)
    ak = np.asarray(predicate(ks), dtype=np.float64)
    al = np.asarray(predicate(ls), dtype=np.float64)
    vals = np.concatenate(list(value_blocks(1, x, c)))
    return fsum(
        float(wk) * float(np.sum(al[in_sorted(vals, k * ls)])) for k, wk in zip(ks, ak) if wk != 0.0
    )
