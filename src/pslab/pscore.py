"""Exact arithmetic for the Piatetski-Shapiro map n -> floor(n^c).

The exponent c is restricted to non-integer rationals p/q > 1, so every
floor value is an exact integer q-th root and no result ever depends on
floating-point rounding.  Membership of an integer k in the value set is
decided by the exact bracket k^q <= n^p < (k+1)^q.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, gcd, log, log2
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ValidationError, check_range

CHUNK = 1 << 16  # fixed reduction and generation chunk, keeps float sums deterministic
DECOMPOSITION_K_GUARD = 10**8


def parse_rational(text: str) -> Fraction:
    """The rational "p/q" with q > 0, exactly; decimal input is rejected to
    avoid silent rounding."""
    num, slash, den = text.strip().partition("/")
    if not slash:
        raise ValidationError(f"{text!r} must be a rational like 3/2 (decimals are not accepted)")
    try:
        p, q = int(num), int(den)
    except ValueError as exc:
        raise ValidationError(f"cannot parse rational {text!r}") from exc
    if q < 1:
        raise ValidationError(f"rational {text!r} needs a positive denominator")
    return Fraction(p, q)


@dataclass(frozen=True)
class ExponentC:
    """The exponent c = p/q with c > 1 and c not an integer.

    gamma = q/p = 1/c is the exponent of the inverse map and always lies
    strictly between 0 and 1.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0:
            raise ValidationError(f"exponent must be positive, got {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValidationError(f"exponent {self.p}/{self.q} must be in lowest terms")
        if self.q < 2:
            raise ValidationError(f"exponent {self.p}/{self.q} is an integer; c must not be")
        if self.p <= self.q:
            raise ValidationError(f"exponent {self.p}/{self.q} must exceed 1")

    @classmethod
    def parse(cls, text: str) -> "ExponentC":
        """Parse "p/q" notation (see parse_rational), reduced to lowest terms."""
        c = parse_rational(text)
        return cls(c.numerator, c.denominator)

    @property
    def as_float(self) -> float:
        return self.p / self.q

    @property
    def gamma(self) -> float:
        return self.q / self.p

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class PsWitness:
    """A value k of the sequence together with its unique preimage, if any.

    When ``preimage`` is n, the exact bracket k^q <= n^p < (k+1)^q holds.
    Since gamma < 1 the interval [k^gamma, (k+1)^gamma) is shorter than 1,
    so no k ever has two preimages.
    """

    value: int
    preimage: Optional[int] = None

    @property
    def is_member(self) -> bool:
        return self.preimage is not None


def integer_root(m: int, q: int) -> int:
    """Largest r with r^q <= m, by Newton iteration on exact integers.

    The starting point comes from a floating estimate but the loop and the
    final bracket check are pure big-integer arithmetic, so the result is
    exact for any size of m.
    """
    if q < 1:
        raise ValidationError(f"root order must be >= 1, got {q}")
    if m < 0:
        raise ValidationError("integer_root requires a nonnegative argument")
    if m < 2 or q == 1:
        return m
    if q == 2:
        import math

        return math.isqrt(m)
    if m.bit_length() <= q:  # m < 2^q means the root is 1
        return 1
    # seed above the true root, so Newton decreases monotonically to it: t is
    # log2 of the root from the top 53 bits of m, and 2^t is off by under
    # (t + 1) 2^-46 relative, half the margin below; s keeps 2^(t - s) < 2^54
    shift = max(m.bit_length() - 53, 0)
    t = (log2(m >> shift) + shift) / q
    s = max(int(t) - 53, 0)
    r = (int(2.0 ** (t - s) * (1.0 + (t + 1.0) * 2.0**-45)) + 2) << s
    while True:
        nxt = ((q - 1) * r + m // r ** (q - 1)) // q
        if nxt >= r:
            break
        r = nxt
    # exact bracket check guards against an off-by-one from the float seed
    while r**q > m:
        r -= 1
    while (r + 1) ** q <= m:
        r += 1
    return r


def floor_pow(n: int, c: ExponentC) -> int:
    """floor(n^(p/q)) computed exactly as the integer q-th root of n^p."""
    if n < 1:
        raise ValidationError(f"floor_pow requires n >= 1, got {n}")
    return integer_root(n**c.p, c.q)


def is_ps_value(k: int, c: ExponentC) -> PsWitness:
    """Decide whether k = floor(n^c) for some n, returning the witness.

    The candidate preimage is the smallest n with n^p >= k^q; k is a value
    exactly when that candidate also satisfies n^p < (k+1)^q.
    """
    if k < 1:
        raise ValidationError(f"is_ps_value requires k >= 1, got {k}")
    kq = k**c.q
    r = integer_root(kq, c.p)
    n = r if r**c.p == kq else r + 1
    if n**c.p < (k + 1) ** c.q:
        return PsWitness(k, n)
    return PsWitness(k, None)


def ps_values_in(lo: int, hi: int, c: ExponentC) -> Iterator[PsWitness]:
    """Stream the values of the sequence inside [lo, hi], in increasing order.

    Iterates the preimage n directly: floor(n^c) is strictly increasing for
    c > 1, so each n contributes at most one value and order is automatic.
    Unlike ps_value_chunks it serves preimages of any size.
    """
    if lo < 1 or hi < lo:
        raise ValidationError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    loq = lo**c.q
    r = integer_root(loq, c.p)
    n = r if r**c.p == loq else r + 1
    n = max(n, 1)
    hi_bound = (hi + 1) ** c.q
    while n**c.p < hi_bound:
        yield PsWitness(integer_root(n**c.p, c.q), n)
        n += 1


def count_decomposition(
    K: int,
    c: ExponentC,
    z: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float, float]:
    """Split a weighted count over sequence values into main + sawtooth parts.

    Returns (main, correction, exact) where

        exact      = sum of z(k) over values k <= K of the sequence,
        main       = gamma * sum_{k<=K} z(k) k^(gamma-1),
        correction = sum_{k<=K} z(k) (psi(-(k+1)^gamma) - psi(-k^gamma)),

    and exact - main - correction stays O(1).  The weight callback must be
    vectorized (ndarray of indices in, ndarray of weights out) so that K up
    to 10^8 never materializes per-index Python calls.  The sawtooth terms
    are evaluated in 64-bit floating point (the O(1) envelope tolerates
    that); each part is a math.fsum of 2^16-element chunk sums, so the
    result is reproducible bit-for-bit.
    """
    from .sawtooth import psi

    check_range(K, 1, DECOMPOSITION_K_GUARD, "decomposition", name="K")
    gamma = c.gamma

    main: list[float] = []
    correction: list[float] = []
    for start in range(1, K + 1, CHUNK):
        ks = np.arange(start, min(start + CHUNK, K + 1), dtype=np.float64)
        w = np.asarray(z(ks), dtype=np.float64)
        main.append(float(np.sum(w * ks ** (gamma - 1.0))))
        correction.append(float(np.sum(w * (psi(-((ks + 1.0) ** gamma)) - psi(-(ks**gamma))))))
    exact = fsum(
        float(np.sum(np.asarray(z(vals.astype(np.float64)), dtype=np.float64)))
        for vals in ps_value_chunks(K, c)
    )
    return gamma * fsum(main), fsum(correction), exact


# ---------------------------------------------------------------------------
# bulk evaluation
# ---------------------------------------------------------------------------

_INT64_SAFE_BITS = 62


def floor_pow_bulk(ns: np.ndarray, c: ExponentC) -> np.ndarray:
    """Vectorized floor(n^c) over an int64 array, exact on every element.

    The result is int64 when n_max < 2^bits with bits * p <= 62 q, so every
    value and its float64 candidate stay below 2^63; above that it is an
    object array of Python integers, one floor_pow per element.  The float64
    candidate v errs only near an integer: rounding c to float64 moves n^c
    by at most v ln v 2^-53, rounding n (above 2^53) by c v 2^-53, and pow
    adds at most 2 ulp (4 v 2^-53).  Every element whose fractional part lies
    within 10x that budget at v_max of an integer is settled by floor_pow;
    once the band reaches 1/2, that is every element.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return ns.copy()
    n_max = int(ns.max())
    if int(ns.min()) < 1:
        raise ValidationError("floor_pow_bulk requires all n >= 1")
    if n_max.bit_length() * c.p > _INT64_SAFE_BITS * c.q:
        return np.array([floor_pow(int(n), c) for n in ns], dtype=object)

    v = np.power(ns.astype(np.float64), c.as_float)
    v_max = float(n_max) ** c.as_float
    tol = 10.0 * v_max * (log(v_max) + c.as_float + 4.0) * 2.0**-53
    k = np.floor(v)
    frac = np.subtract(v, k, out=v)  # in place: v is not read again
    suspect = (frac < tol) | (frac > 1.0 - tol)
    k = k.astype(np.int64)
    k[suspect] = [floor_pow(n, c) for n in ns[suspect].tolist()]
    return k


def in_sorted(sorted_vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Whether each xs[i] occurs in the ascending, nonempty sorted_vals,
    by binary search and an exact equality test."""
    idx = np.minimum(np.searchsorted(sorted_vals, xs), sorted_vals.size - 1)
    return sorted_vals[idx] == xs


def ps_value_chunks(X: int, c: ExponentC) -> Iterator[np.ndarray]:
    """The values floor(n^c) <= X in increasing order, one array per 2^16
    consecutive preimages n = 1, 2, ...; the last preimage is the largest n
    with n^p < (X+1)^q, found exactly, so no value is missed at the boundary.
    """
    n_max = integer_root((X + 1) ** c.q - 1, c.p)
    for lo in range(1, n_max + 1, CHUNK):
        yield floor_pow_bulk(np.arange(lo, min(lo + CHUNK, n_max + 1), dtype=np.int64), c)
