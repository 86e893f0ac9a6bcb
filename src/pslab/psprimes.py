"""Counting sequence primes in arithmetic progressions and the two-route
evaluation of the smoothed main term.

Sequence primes are the exact values floor(n^c) that are prime, with the
big-integer membership witness re-checked on a sample; only the log-weighted
sums are floating point, each a math.fsum of fixed 2^16-element chunk sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, gcd, log

import numpy as np

from .arith import euler_phi, primes_up_to
from .errors import RouteDisagreementError, ValidationError, check_range
from .pscore import CHUNK, ExponentC, in_sorted, is_ps_value, last_preimage, value_blocks

X_GUARD = 10**9
ROUTE_TOLERANCE = 1e-9
WITNESS_SAMPLES = 32  # evenly spaced primes, first and last included


@dataclass(frozen=True)
class ApQuery:
    """Primes p <= x with p = a (mod d), under the exponent c."""

    x: int
    d: int
    a: int
    c: ExponentC

    def __post_init__(self) -> None:
        if self.x < 2:
            raise ValidationError(f"x={self.x} must be >= 2")
        if gcd(self.a, self.d) != 1:
            raise ValidationError(f"a={self.a} and d={self.d} must be coprime")
        _check_progression(self.x, self.d)


def _check_progression(x: int, d: int) -> None:
    """The modulus and x-guard check of ApQuery and of pi_ap/theta_ap, which
    accept any x >= 0 and an a not coprime to d."""
    if d < 1:
        raise ValidationError(f"modulus d={d} must be >= 1")
    check_range(x, 0, X_GUARD, "progression")


def _in_progression(ps: np.ndarray, d: int, a: int) -> np.ndarray:
    """The ps = a (mod d)."""
    return ps if d == 1 else ps[ps % d == a % d]


def _progression_primes(x: int, d: int, a: int) -> np.ndarray:
    _check_progression(x, d)
    return _in_progression(primes_up_to(x).primes, d, a)


def pi_ap(x: int, d: int, a: int) -> int:
    """pi(x; d, a): exact count of primes p <= x with p = a (mod d)."""
    return int(_progression_primes(x, d, a).size)


def theta_ap(x: int, d: int, a: int) -> float:
    """Chebyshev sum of log p over primes p <= x, p = a (mod d)."""
    ps = _progression_primes(x, d, a)
    return _chunked_sum(np.log(ps.astype(np.float64)))


def _chunked_sum(v: np.ndarray) -> float:
    # math.fsum of the 2^16-element chunk sums: correctly rounded, so order-free
    return fsum(float(np.sum(v[lo : lo + CHUNK])) for lo in range(0, v.size, CHUNK))


@lru_cache(maxsize=1)  # the name predates the array it holds; perfbench clears it by name
def _ps_prime_mask_cached(x: int, p: int, q: int) -> np.ndarray:
    """The sequence primes <= x: the generated values that are prime, so
    membership holds by construction; is_ps_value re-decides a sample."""
    c = ExponentC(p, q)
    primes = primes_up_to(x).primes
    if primes.size == 0:
        return primes
    blocks = value_blocks(1, last_preimage(x, c), c)
    ps = np.concatenate([vals[in_sorted(primes, vals)] for vals in blocks])
    for k in primes[np.unique(np.linspace(0, primes.size - 1, WITNESS_SAMPLES).astype(np.int64))]:
        k, i = int(k), int(np.searchsorted(ps, k))
        generated = i < ps.size and int(ps[i]) == k
        if is_ps_value(k, c).is_member != generated:
            raise RouteDisagreementError(f"prime {k}: generated={generated}, witness disagrees, c={c}")
    return ps


def ps_primes_up_to(x: int, c: ExponentC) -> np.ndarray:
    """The sequence primes up to x, found by generating the values floor(n^c)."""
    return _ps_prime_mask_cached(x, c.p, c.q).copy()


def pi_c_ap(q: ApQuery) -> int:
    """Count of sequence primes p <= x with p = a (mod d)."""
    return int(_in_progression(ps_primes_up_to(q.x, q.c), q.d, q.a).size)


def vartheta_c_ap(q: ApQuery) -> float:
    """Log-weighted count of sequence primes in the progression."""
    ps = _in_progression(ps_primes_up_to(q.x, q.c), q.d, q.a)
    return _chunked_sum(np.log(ps.astype(np.float64)))


def ap_main_term(q: ApQuery) -> float:
    """Smoothed main term for pi_c(x; d, a), evaluated two independent ways.

    Route A integrates the step function pi(u; d, a) exactly, using the
    antiderivative u^(gamma-1)/(gamma-1) on each inter-prime interval:

        gamma x^(gamma-1) pi(x;d,a) + gamma(1-gamma) I,
        I = sum_{p} (x^(gamma-1) - p^(gamma-1)) / (gamma - 1).

    Route B is the algebraically equal closed form gamma sum_p p^(gamma-1).
    The two must agree to 1e-9 relative; disagreement signals a bug and
    raises RouteDisagreementError.
    """
    gamma = q.c.gamma
    ps = _progression_primes(q.x, q.d, q.a).astype(np.float64)
    xg = float(q.x) ** (gamma - 1.0)
    integral = _chunked_sum((xg - ps ** (gamma - 1.0)) / (gamma - 1.0))
    route_a = gamma * xg * ps.size + gamma * (1.0 - gamma) * integral
    route_b = gamma * _chunked_sum(ps ** (gamma - 1.0))

    scale = max(abs(route_a), abs(route_b), 1e-300)
    if abs(route_a - route_b) / scale > ROUTE_TOLERANCE:
        raise RouteDisagreementError(
            f"main-term routes disagree: {route_a!r} vs {route_b!r} for {q}"
        )
    return route_b


def brun_titchmarsh_report(q: ApQuery) -> float:
    """Empirical constant pi_c(x;d,a) * phi(d) * log(x) / x^gamma.

    The upper-bound constant in the progression estimate is non-effective;
    this reports its measured value for trend studies.  phi(d) comes first:
    its factorization guard refuses a large d before the count sieves.
    """
    phi = euler_phi(q.d)
    return pi_c_ap(q) * phi * log(q.x) / float(q.x) ** q.c.gamma
