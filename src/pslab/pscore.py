"""Exact arithmetic for the Piatetski-Shapiro map n -> floor(n^c).

The exponent c is restricted to non-integer rationals p/q > 1.  Every
placement of an integer against a power n^(a/b) (a floor value, membership
in the value set, P > n^e) goes through one exact floor of n^(a/b), so no
result ever depends on floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, gcd, inf, isqrt, log, log2, nextafter
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ValidationError, check_range

CHUNK = 1 << 16  # fixed reduction and generation chunk, keeps float sums deterministic
DECOMPOSITION_K_GUARD = 10**8
EXACT_BITS = 1 << 15  # n^a up to this many bits is rooted in integers (see _floor_pow)
INTERVAL_ORDER_MIN = 16  # an enclosure of n^(a/b) needs about bits(n^a)/b bits: it pays for large b


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
        return isqrt(m)
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


def _floor_pow(n: int, a: int, b: int) -> int:
    """floor(n^(a/b)) for n >= 1 and coprime a, b >= 1, exactly: the integer
    b-th root of n^a while b < INTERVAL_ORDER_MIN or n^a has at most
    EXACT_BITS bits, else interval enclosures at rising precision.
    A perfect b-th power n = m^b gives m^a; any other n gives an irrational
    n^(a/b), so some enclosure straddles no integer and the loop ends."""
    if b < INTERVAL_ORDER_MIN or a * n.bit_length() <= EXACT_BITS:
        return integer_root(n**a, b)
    m = integer_root(n, b)
    if m**b == n:
        return m**a
    from mpmath.libmp import from_int, from_rational, mpf_exp, mpf_log, mpf_mul, round_ceiling, round_floor, to_int

    def bound(rnd):  # exp((a/b) log n), each step rounded toward rnd; every factor is positive
        e = from_rational(a, b, prec, rnd)
        return to_int(mpf_exp(mpf_mul(e, mpf_log(from_int(n), prec, rnd), prec, rnd), prec, rnd))

    prec = a * n.bit_length() // b + 64
    while (lo := bound(round_floor)) != bound(round_ceiling):  # to_int truncates: the floor
        prec *= 2
    return lo


def floor_pow(n: int, c: ExponentC) -> int:
    """floor(n^(p/q)), exactly."""
    if n < 1:
        raise ValidationError(f"floor_pow requires n >= 1, got {n}")
    return _floor_pow(n, c.p, c.q)


def exceeds(P: int, n: int, e: Fraction) -> bool:
    """P > n^e for Python ints P >= 1 and n >= 1, decided exactly: n = 1,
    e <= 0 and a P whose bit length alone places it against
    2^(e (bits(n) - 1)) <= n^e < 2^(e bits(n)) are settled at once, so a P
    of any size meets no float; any other P exceeds n^e when it exceeds
    floor(n^e)."""
    if n == 1 or e == 0:
        return P > 1
    if e < 0:
        return True  # n^e < 1 <= P
    bits, n_bits = P.bit_length(), n.bit_length()
    if bits - 1 >= e * n_bits:  # P >= 2^(bits-1) >= 2^(e n_bits) > n^e
        return True
    if bits <= e * (n_bits - 1):  # P < 2^bits <= 2^(e (n_bits-1)) <= n^e
        return False
    return P > _floor_pow(n, e.numerator, e.denominator)


def is_ps_value(k: int, c: ExponentC) -> PsWitness:
    """Decide whether k = floor(n^c) for some n, returning the witness.

    With n0 = floor(k^(1/c)), n0^c <= k < (n0+1)^c, and consecutive powers
    beyond n0 + 1 lie more than 1 apart, so a preimage can only be n0 or
    n0 + 1; each is checked by its exact floor.
    """
    if k < 1:
        raise ValidationError(f"is_ps_value requires k >= 1, got {k}")
    n0 = _floor_pow(k, c.q, c.p)
    preimage = next((n for n in (n0, n0 + 1) if _floor_pow(n, c.p, c.q) == k), None)
    return PsWitness(k, preimage)


def ps_values_in(lo: int, hi: int, c: ExponentC) -> Iterator[PsWitness]:
    """Stream the values of the sequence inside [lo, hi], in increasing order,
    from the preimage floor(lo^(1/c)), whose value is at most lo; floor(n^c)
    strictly increases with n.  Unlike value_blocks it takes a range of
    values, not of preimages.
    """
    if lo < 1 or hi < lo:
        raise ValidationError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    n = _floor_pow(lo, c.q, c.p)
    while (k := _floor_pow(n, c.p, c.q)) <= hi:
        if k >= lo:
            yield PsWitness(k, n)
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
        for vals in value_blocks(1, last_preimage(K, c), c)
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
    candidate v errs only near an integer, by the sum of three terms:
    rounding c to float64 by delta = float(c) - p/q (exact, rounded up; 0 for
    dyadic c) moves n^c by v |delta| ln v / c; rounding n moves it by
    c v 2^-53, counted only when n_max >= 2^53; pow adds at most 2 ulp
    (4 v 2^-53).  Every element whose fractional part lies within 10x that
    budget at v_max of an integer is settled by floor_pow; once the band
    reaches 1/2, that is every element.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return ns.copy()
    n_max = int(ns.max())
    if int(ns.min()) < 1:
        raise ValidationError("floor_pow_bulk requires all n >= 1")
    if n_max.bit_length() * c.p > _INT64_SAFE_BITS * c.q:
        return np.array([floor_pow(int(n), c) for n in ns], dtype=object)

    cf = c.as_float
    delta = abs(Fraction(cf) - Fraction(c.p, c.q))
    dc = float(delta)
    if dc < delta:
        dc = nextafter(dc, inf)
    dn = cf * 2.0**-53 if n_max >= 2**53 else 0.0
    v = np.power(ns.astype(np.float64), cf)
    v_max = float(n_max) ** cf
    tol = 10.0 * v_max * (dc * log(v_max) / cf + dn + 4.0 * 2.0**-53)
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


def value_blocks(lo: int, hi: int, c: ExponentC) -> Iterator[np.ndarray]:
    """floor(n^c) for n = lo..hi in increasing order, exact: one
    floor_pow_bulk array per CHUNK consecutive preimages, so a harness that
    reduces block by block holds one block of values at a time."""
    for start in range(lo, hi + 1, CHUNK):
        yield floor_pow_bulk(np.arange(start, min(start + CHUNK, hi + 1), dtype=np.int64), c)


def last_preimage(X: int, c: ExponentC) -> int:
    """The largest n with floor(n^c) <= X: floor(X^(1/c)), or one more when
    its successor's value is X."""
    n = _floor_pow(X, c.q, c.p)
    return n + (_floor_pow(n + 1, c.p, c.q) <= X)
