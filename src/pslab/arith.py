"""Prime generation, factorization and multiplicative predicates.

Everything here is deterministic: primality uses a fixed strong-probable-
prime base set that is proven complete below 3.3e24, and the rho cycle
finder uses the fixed polynomial x^2 + 1 with deterministic restart
increments, so repeated runs factor every input identically.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

import numpy as np

from .errors import GuardError, ValidationError

SIEVE_LIMIT_GUARD = 10**9
SPF_LIMIT_GUARD = 10**8
FACTOR_GUARD = 10**14
MOBIUS_LIMIT_GUARD = 10**8
SQUAREFREE_BULK_MAX = 10**12  # its cube root, 10^4, is the end of _SMALL_PRIMES
SEGMENT_SIZE = 1 << 18  # 256 KiB segments keep the sieve cache-resident

# strong-probable-prime bases covering all n < 3.317e24 (first 13 primes)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass
class SieveCache:
    """Primes up to ``limit`` plus an optional smallest-prime-factor table.

    Immutable after construction; safe to share across threads.
    """

    limit: int
    primes: np.ndarray            # ascending int64
    spf: Optional[np.ndarray] = None  # spf[m] = least prime factor of m, int64

    def prime_count(self) -> int:
        return int(self.primes.size)


@dataclass(frozen=True)
class FactorMap:
    """Prime factorization as ((prime, exponent), ...) with primes ascending."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ps = [p for p, _ in self.entries]
        if ps != sorted(ps) or len(set(ps)) != len(ps):
            raise ValidationError("factor entries must have strictly increasing primes")
        if any(e < 1 for _, e in self.entries):
            raise ValidationError("factor exponents must be >= 1")

    def product(self) -> int:
        out = 1
        for p, e in self.entries:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def max_prime(self) -> int:
        if not self.entries:
            raise ValidationError("empty factorization has no largest prime")
        return self.entries[-1][0]

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.entries)


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def primes_up_to(limit: int, with_spf: bool = False) -> SieveCache:
    """Segmented sieve of Eratosthenes; exact prime list up to ``limit``."""
    if limit < 0:
        raise ValidationError(f"limit must be nonnegative, got {limit}")
    if limit > SIEVE_LIMIT_GUARD:
        raise GuardError(f"sieve limit {limit} exceeds the guard {SIEVE_LIMIT_GUARD}")
    if with_spf and limit > SPF_LIMIT_GUARD:
        raise GuardError(f"spf table limit {limit} exceeds the guard {SPF_LIMIT_GUARD}")

    if limit < 2:
        return SieveCache(limit, np.empty(0, dtype=np.int64))

    base = _simple_sieve(isqrt(limit))
    chunks = []
    if limit <= SEGMENT_SIZE or base.size == 0:
        chunks.append(_simple_sieve(limit))
    else:
        for lo in range(2, limit + 1, SEGMENT_SIZE):
            hi = min(lo + SEGMENT_SIZE, limit + 1)
            seg = np.ones(hi - lo, dtype=bool)
            for p in base:
                p = int(p)
                start = max(p * p, ((lo + p - 1) // p) * p)
                if start < hi:
                    seg[start - lo :: p] = False
            chunks.append((np.nonzero(seg)[0] + lo).astype(np.int64))
    primes = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    spf = None
    if with_spf:
        spf = np.arange(limit + 1, dtype=np.int64)
        for p in base:
            p = int(p)
            spf[p * p :: p] = np.minimum(spf[p * p :: p], p)
    return SieveCache(limit, primes, spf)


def is_prime(n: int) -> bool:
    """Deterministic strong-probable-prime test (complete below 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _SPRP_PROVEN_BOUND:
        raise GuardError(f"primality test only proven below {_SPRP_PROVEN_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """Find a nontrivial factor of odd composite n with Brent's variant of rho.

    The polynomial is fixed at x^2 + c with c stepping 1, 2, 3, ... on each
    restart, so the factor found is a deterministic function of n.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # deterministic restart with the next increment


_SMALL_PRIMES = _simple_sieve(10**4)


def factorize(m: int, cache: Optional[SieveCache] = None) -> FactorMap:
    """Complete factorization of m <= 10^14.

    Trial division by sieved primes handles the small part; the cofactor is
    settled by the deterministic primality test and rho splitting.  When a
    SieveCache with an spf table covering m is supplied, the factorization
    walks the table instead.
    """
    if m < 1:
        raise ValidationError(f"factorize requires m >= 1, got {m}")
    if m > FACTOR_GUARD:
        raise GuardError(f"m={m} exceeds the factorization guard {FACTOR_GUARD}")
    if m == 1:
        return FactorMap(())

    if cache is not None and cache.spf is not None and m <= cache.limit:
        out = []
        while m > 1:
            p = int(cache.spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        return FactorMap(tuple(sorted(out)))

    entries: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            entries.append((p, e))
    if m > 1:
        if m < 10**8 or is_prime(m):
            entries.append((m, 1))
        else:
            stack = [m]
            found: dict[int, int] = {}
            while stack:
                v = stack.pop()
                if is_prime(v):
                    found[v] = found.get(v, 0) + 1
                    continue
                d = _rho_split(v)
                stack.extend((d, v // d))
            entries.extend(sorted(found.items()))
    return FactorMap(tuple(sorted(entries)))


def largest_prime_factor(m: int, cache: Optional[SieveCache] = None) -> int:
    """P(m): the largest prime dividing m; requires m >= 2."""
    if m < 2:
        raise ValidationError(f"largest_prime_factor requires m >= 2, got {m}")
    return factorize(m, cache).max_prime()


def is_squarefree(m: int, cache: Optional[SieveCache] = None) -> bool:
    """True iff no prime square divides m."""
    if m < 1:
        raise ValidationError(f"is_squarefree requires m >= 1, got {m}")
    return factorize(m, cache).is_squarefree()


def is_squarefree_bulk(values: np.ndarray) -> np.ndarray:
    """Vectorized squarefree test for int64 values up to SQUAREFREE_BULK_MAX.

    Divides out the primes below cbrt(max); the remaining cofactor has at
    most two prime factors, so it is non-squarefree exactly when it is a
    perfect square > 1.
    """
    v = np.asarray(values, dtype=np.int64).copy()
    if v.size == 0:
        return np.zeros(0, dtype=bool)
    if int(v.min()) < 1:
        raise ValidationError("is_squarefree_bulk requires values >= 1")
    v_max = int(v.max())
    if v_max > SQUAREFREE_BULK_MAX:
        raise GuardError(f"is_squarefree_bulk supports values up to {SQUAREFREE_BULK_MAX}")

    bad = np.zeros(v.shape, dtype=bool)
    cbrt = int(round(v_max ** (1.0 / 3.0))) + 2
    for p in _SMALL_PRIMES:
        p = int(p)
        if p > cbrt:
            break
        bad |= v % (p * p) == 0
        div = v % p == 0
        v[div] //= p
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r = np.where((r + 1) ** 2 <= v, r + 1, r)
    r = np.where(r * r > v, r - 1, r)
    bad |= (v > 1) & (r * r == v)
    return ~bad


def mobius_up_to(limit: int) -> np.ndarray:
    """Table of Moebius mu(d) for 0 <= d <= limit (index 0 is set to 0).

    Sign flips come from one pass per prime; a second stride per prime
    zeroes the multiples of p^2.
    """
    if limit < 1:
        raise ValidationError(f"limit must be >= 1, got {limit}")
    if limit > MOBIUS_LIMIT_GUARD:
        raise GuardError(f"mobius limit {limit} exceeds the guard {MOBIUS_LIMIT_GUARD}")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    if limit < 2:
        return mu
    primes = primes_up_to(limit).primes
    for p in primes:
        p = int(p)
        mu[p::p] = -mu[p::p]
        if p * p <= limit:
            mu[p * p :: p * p] = 0
    return mu


def euler_phi(d: int) -> int:
    """Euler's totient via the factorization of d."""
    out = d
    for p, _ in factorize(d).entries:
        out -= out // p
    return out
