"""Exact arithmetic for the Piatetski-Shapiro map n -> floor(n^c).

The exponent c is restricted to non-integer rationals p/q > 1.  Every
placement of an integer against a power n^(a/b) made here (a floor value,
membership in the value set, ``exceeds``) goes through one exact floor of
n^(a/b), so no result ever depends on floating-point rounding.

One placement rests on a second error argument: experiments._exceeds_power
settles P > n^e in float64 outside a relative band of 2^-30 around n^e, far
above the float error of either side, and hands only the band to
``exceeds``; comparing with _floor_pow_bulk instead agreed but cost more
time and memory (README, pslab.pscore).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, gcd, inf, isqrt, log, log2, nextafter
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import ValidationError, check_range

CHUNK = 1 << 16  # fixed reduction and generation chunk, keeps float sums deterministic
DECOMPOSITION_K_GUARD = 10**8
# preimages ps_values_in reads from value_blocks; at 501/500 near 2^62 all
# take the object route, one exact floor each: about 14 s at the limit
PS_VALUES_GUARD = 2 * 10**4
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
    """Largest r with r^q <= m, exactly, for any size of m.

    A float estimate 2^t of the root starts it.  Below 2^40 that estimate
    is off by under 1, so the exact bracket check alone settles it, in at
    most one step; from 2^40 up, Newton iteration on exact integers runs
    first, from a seed above the root.
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
    # t is log2 of the root from the top 53 bits of m, and 2^t is off by
    # under (t + 1) 2^-46 relative: below 2^40 that is under 1, so the
    # bracket check below moves int(2^t) by at most one
    shift = max(m.bit_length() - 53, 0)
    t = (log2(m >> shift) + shift) / q
    if t < 40:
        r = int(2.0**t)
    else:
        # seed above the true root, so Newton decreases monotonically to it:
        # the seed adds twice the estimate's error; s keeps 2^(t - s) < 2^54
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
    """Stream the values of the sequence inside [lo, hi], in increasing order:
    a filter over value_blocks from the preimage floor(lo^(1/c)), whose value
    is at most lo, to last_preimage(hi); floor(n^c) strictly increases with
    n.  The preimages are counted first, and more than PS_VALUES_GUARD of
    them raise GuardError before any value.
    """
    if lo < 1 or hi < lo:
        raise ValidationError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    n_lo, n_hi = _floor_pow(lo, c.q, c.p), last_preimage(hi, c)
    check_range(n_hi - n_lo + 1, 1, PS_VALUES_GUARD, "value-stream", name="preimages")
    for start, vals in zip(range(n_lo, n_hi + 1, CHUNK), value_blocks(n_lo, n_hi, c)):
        for i, k in enumerate(vals.tolist()):
            if k >= lo:
                yield PsWitness(k, start + i)


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
        # one extra point: k + 1 is exactly the next float, so s[1:] is psi(-(k+1)^gamma)
        ks_ext = np.arange(start, min(start + CHUNK, K + 1) + 1, dtype=np.float64)
        s = psi(-(ks_ext**gamma))
        ks = ks_ext[:-1]
        w = np.asarray(z(ks), dtype=np.float64)
        main.append(float(np.sum(w * ks ** (gamma - 1.0))))
        correction.append(float(np.sum(w * (s[1:] - s[:-1]))))
    exact = fsum(
        float(np.sum(np.asarray(z(vals.astype(np.float64)), dtype=np.float64)))
        for vals in value_blocks(1, last_preimage(K, c), c)
    )
    return gamma * fsum(main), fsum(correction), exact


# ---------------------------------------------------------------------------
# bulk evaluation
# ---------------------------------------------------------------------------

_INT64_SAFE_BITS = 62
BAND_SLICE = 1 << 12  # band elements per pair of object-array powers


def floor_pow_bulk(ns: np.ndarray, c: ExponentC) -> np.ndarray:
    """Vectorized floor(n^c) over an int64 array, exact on every element
    (see _floor_pow_bulk)."""
    return _floor_pow_bulk(ns, c.p, c.q)


def _floor_pow_bulk(ns: np.ndarray, a: int, b: int) -> np.ndarray:
    """floor(n^(a/b)) over an int64 array, for coprime a, b >= 1, exact on
    every element.

    The result is int64 when n_max < 2^bits with bits * a <= 62 b, so every
    value and its float64 candidate stay below 2^63; above that it is an
    object array of Python integers, one exact floor per element.  The
    float64 candidate v errs only near an integer, by the sum of three
    terms: rounding e = a/b to float64 by delta = float(e) - a/b (exact,
    rounded up; 0 for dyadic e) moves n^e by v |delta| ln v / e; rounding n
    moves it by e v 2^-53, counted only when n_max >= 2^53; pow adds at most
    2 ulp (4 v 2^-53).  Every element whose fractional part lies within 10x
    that budget at v_max of an integer (the band; once it reaches 1/2, every
    element) is settled exactly by _settle_band.  The int64 route runs CHUNK
    elements at a time (_floor_pow_slice) into one result array, so its
    temporaries stay one slice long; an input of at most CHUNK elements
    returns its one slice's array.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return ns.copy()
    n_max = int(ns.max())
    if int(ns.min()) < 1:
        raise ValidationError("floor_pow_bulk requires all n >= 1")
    if n_max.bit_length() * a > _INT64_SAFE_BITS * b:
        return _floor_pow_each(ns.tolist(), a, b)

    tol = _band(n_max, a, b)
    if ns.size <= CHUNK:
        return _floor_pow_slice(ns, a, b, tol)
    out = np.empty(ns.size, dtype=np.int64)
    for lo in range(0, ns.size, CHUNK):
        out[lo : lo + CHUNK] = _floor_pow_slice(ns[lo : lo + CHUNK], a, b, tol)
    return out


def _band(n_max: int, a: int, b: int) -> float:
    """The band half-width of _floor_pow_bulk: 10x the float64 error budget
    of n^(a/b) at v_max = n_max^(a/b), for int64 n in [1, n_max]."""
    ef = a / b
    delta = abs(Fraction(ef) - Fraction(a, b))
    de = float(delta)
    if de < delta:
        de = nextafter(de, inf)
    dn = ef * 2.0**-53 if n_max >= 2**53 else 0.0
    v_max = float(n_max) ** ef
    return 10.0 * v_max * (de * log(v_max) / ef + dn + 4.0 * 2.0**-53)


def _floor_pow_slice(ns: np.ndarray, a: int, b: int, tol: float) -> np.ndarray:
    """_floor_pow_bulk's int64 route on one slice, with the band half-width
    tol of the whole input: the float candidate, then the band settled."""
    v = np.power(ns.astype(np.float64), a / b)
    k = np.floor(v)
    frac = np.subtract(v, k, out=v)  # in place: v is not read again
    band = np.flatnonzero((frac < tol) | (frac > 1.0 - tol))
    k = k.astype(np.int64)
    if band.size:
        k[band] = _settle_band(ns[band], k[band] + (frac[band] > 0.5), a, b, tol)
    return k


def _floor_pow_each(ns: Iterable[int], a: int, b: int) -> np.ndarray:
    """floor(n^(a/b)) as an object array, one exact floor per int n >= 1; an
    exponent c = a/b goes through floor_pow, whose calls count these floors."""
    c = ExponentC(a, b) if a > b else None
    return np.array([floor_pow(n, c) if c else _floor_pow(n, a, b) for n in ns], dtype=object)


def _settle_band(ns: np.ndarray, m: np.ndarray, a: int, b: int, tol: float) -> np.ndarray:
    """floor(n^(a/b)) for _floor_pow_bulk's band elements ns, exactly: m is
    the integer nearest each float candidate, which lies within tol of m and
    within tol/10 of n^(a/b).  Below tol = 1/2, n^(a/b) lies within
    2 tol < 1 of m even if the float error filled the whole band, so the
    floor is m - 1 or m, and the one comparison m^b > n^a on object arrays,
    BAND_SLICE elements at a time, settles it while n^a has at most
    EXACT_BITS bits; a wider band, or larger powers, takes the exact floor
    per element."""
    if tol >= 0.5 or a * int(ns.max()).bit_length() > EXACT_BITS:
        return _floor_pow_each(ns.tolist(), a, b).astype(np.int64)
    for lo in range(0, ns.size, BAND_SLICE):
        part = slice(lo, lo + BAND_SLICE)
        m[part] -= m[part].astype(object) ** b > ns[part].astype(object) ** a
    return m


def is_ps_value_bulk(ks: np.ndarray, c: ExponentC) -> np.ndarray:
    """Whether each k >= 1 of an int64 array is a value floor(n^c), exactly:
    the bulk is_ps_value, read off value_preimages one CHUNK at a time, so
    the int64 preimages stay one slice long."""
    ks = np.asarray(ks, dtype=np.int64)
    out = np.empty(ks.size, dtype=bool)
    for lo in range(0, ks.size, CHUNK):
        out[lo : lo + CHUNK] = value_preimages(ks[lo : lo + CHUNK], c) > 0
    return out


def value_preimages(ks: np.ndarray, c: ExponentC) -> np.ndarray:
    """The preimage n of each k >= 1 of an int64 array that is a value
    floor(n^c), and 0 for every other k, exactly.

    With g = 1/c and n0 = floor(k^g), k is a value when
    floor((n0+1)^c) = k, that is when n0 + 1 < (k+1)^g, with preimage
    n0 + 1; or when floor(n0^c) = k, which holds only when k = m^p is a
    perfect p-th power (n0 = m^q is then its preimage).  Either way k^g
    lies in (N - d, N] for an integer N, d = (k+1)^g - k^g < g k_min^(g-1),
    k_min the least k of its chunk.  In float64, z = k^g + r with
    r = tol + g k_min^(g-1) errs by under tol (_band's at the chunk's
    largest k: ten times the float error of k^g, which the rounded sum
    adds half an ulp to), so z lands in (N, N + r + tol) and its
    fractional part is at most r + tol.  One float64 pass keeps only such
    k (all of them once r + tol reaches 1); every other k is no value.  The
    kept k are settled exactly: floor((n0+1)^c) by floor_pow_bulk, and the
    perfect p-th powers looked up, not computed, among the powers inside
    the kept k's [min, max].  The input runs CHUNK elements at a time into
    one result, as in _floor_pow_bulk, so the temporaries stay one slice
    long.
    """
    ks = np.asarray(ks, dtype=np.int64)
    out = np.zeros(ks.size, dtype=np.int64)
    if ks.size and int(ks.min()) < 1:
        raise ValidationError("value_preimages requires all k >= 1")
    g = c.q / c.p
    for lo in range(0, ks.size, CHUNK):
        part = ks[lo : lo + CHUNK]
        tol = _band(int(part.max()), c.q, c.p)
        # the float64 g k_min^(g-1) errs by a few ulp; 2^-30 covers it
        r = tol + g * float(part.min()) ** (g - 1.0) * (1.0 + 2.0**-30)
        if r + tol < 1.0:
            z = part.astype(np.float64)
            np.power(z, g, out=z)
            z += r
            z -= np.floor(z)
            near = np.flatnonzero(z <= r + tol)
            if near.size == 0:
                continue
            k = part[near]
        else:
            near, k = slice(None), part
        n0 = _floor_pow_bulk(k, c.q, c.p)
        pre = np.where(floor_pow_bulk(n0 + 1, c) == k, n0 + 1, 0)
        m_lo, m_hi = integer_root(int(k.min()) - 1, c.p) + 1, integer_root(int(k.max()), c.p)
        if m_lo <= m_hi:
            power = in_sorted(np.arange(m_lo, m_hi + 1, dtype=np.int64) ** c.p, k)
            pre[power] = n0[power]
        out[lo : lo + CHUNK][near] = pre
    return out


def multiple_preimages(s: np.ndarray, V: int, c: ExponentC) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The values among the multiples of each modulus: (i, k, n) over every
    value k = m s[i] <= V, m >= 1, with n its preimage, for int64 moduli
    s >= 1 and V < 2^63, as one triple of arrays per chunk of multiples.

    The multiples are numbered across the moduli in order, V // s[i] of
    them for s[i], and pass through value_preimages CHUNK at a time: each
    chunk is made from the moduli its numbers span, by repeating each
    modulus and its first number, so no array of all the multiples is ever
    held.  The triples come out in that order: ascending i, and ascending k
    within each i.
    """
    s = np.asarray(s, dtype=np.int64)
    counts = V // s
    ends = np.cumsum(counts)
    firsts = ends - counts
    total = int(ends[-1]) if s.size else 0
    for lo in range(0, total, CHUNK):
        hi = min(lo + CHUNK, total)
        span = slice(*np.searchsorted(ends, [lo, hi - 1], side="right") + [0, 1])
        reps = np.minimum(ends[span], hi) - np.maximum(firsts[span], lo)
        ks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        ks -= np.repeat(firsts[span], reps)  # m
        ks *= np.repeat(s[span], reps)
        n = value_preimages(ks, c)
        hit = np.flatnonzero(n)
        yield np.searchsorted(ends, lo + hit, side="right"), ks[hit], n[hit]


def in_sorted(sorted_vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Whether each xs[i] occurs in the ascending, nonempty sorted_vals,
    by binary search and an exact equality test."""
    idx = np.minimum(np.searchsorted(sorted_vals, xs), sorted_vals.size - 1)
    return sorted_vals[idx] == xs


def value_blocks(lo: int, hi: int, c: ExponentC) -> Iterator[np.ndarray]:
    """floor(n^c) for n = lo..hi in increasing order, exact: one
    floor_pow_bulk array per CHUNK consecutive preimages, so a harness that
    reduces block by block holds one block of values at a time.  A block
    that reaches n = 2^63 (np.arange would wrap) is floored one by one."""
    for start in range(lo, hi + 1, CHUNK):
        stop = min(start + CHUNK, hi + 1)
        if stop > 2**63:
            yield _floor_pow_each(range(start, stop), c.p, c.q)
        else:
            yield floor_pow_bulk(np.arange(start, stop, dtype=np.int64), c)


def last_preimage(X: int, c: ExponentC) -> int:
    """The largest n with floor(n^c) <= X: floor(X^(1/c)), or one more when
    its successor's value is X."""
    n = _floor_pow(X, c.q, c.p)
    return n + (_floor_pow(n + 1, c.p, c.q) <= X)
