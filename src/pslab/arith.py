"""Prime generation, factorization and multiplicative predicates.

Everything here is deterministic: primality uses a fixed strong-probable-
prime base set that is proven complete below 3.3e24, and the rho cycle
finder uses the fixed polynomial x^2 + 1 with deterministic restart
increments, so repeated runs factor every input identically.
``factor_stream`` factors a whole value array with one vectorized
trial-division pass and the same rho for the cofactors it must split.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gcd, isqrt, log

import numpy as np

from .errors import GuardError, ValidationError, check_range
from .pscore import integer_root

SIEVE_LIMIT_GUARD = 10**9
FACTOR_GUARD = 10**14
MOBIUS_LIMIT_GUARD = 10**8
# factor_stream's limit: its cube root, 10^4, ends _SMALL_PRIMES, and it lies
# below both 2^40 (_mulmod) and 1.122e12 (_MR_BASES)
SQUAREFREE_BULK_MAX = 10**12
SEGMENT_SIZE = 1 << 18  # 256 KiB segments keep the sieve cache-resident

# strong-probable-prime bases covering all n < 3.317e24 (first 13 primes)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass
class SieveCache:
    """The primes up to ``limit``.

    Immutable after construction; safe to share across threads.
    """

    limit: int
    primes: np.ndarray  # ascending int64
    spf: None = None  # always None; perfbench/tracing.py's _after_sieve reads it

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


def primes_up_to(limit: int) -> SieveCache:
    """Segmented sieve of Eratosthenes; exact prime list up to ``limit``."""
    check_range(limit, 0, SIEVE_LIMIT_GUARD, "sieve", name="limit")

    if limit < 2:
        return SieveCache(limit, np.empty(0, dtype=np.int64))

    base = _simple_sieve(isqrt(limit)).tolist()
    chunks = []
    for lo in range(2, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        chunks.append((np.nonzero(seg)[0] + lo).astype(np.int64))
    return SieveCache(limit, np.concatenate(chunks))


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


def factorize(m: int) -> FactorMap:
    """Complete factorization of m <= 10^14.

    Trial division by sieved primes handles the small part; the cofactor is
    settled by the deterministic primality test and rho splitting.
    """
    check_range(m, 1, FACTOR_GUARD, "factorization", name="m")
    if m == 1:
        return FactorMap(())

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


def largest_prime_factor(m: int) -> int:
    """P(m): the largest prime dividing m; requires m >= 2."""
    if m < 2:
        raise ValidationError(f"largest_prime_factor requires m >= 2, got {m}")
    return factorize(m).max_prime()


def is_squarefree(m: int) -> bool:
    """True iff no prime square divides m."""
    if m < 1:
        raise ValidationError(f"is_squarefree requires m >= 1, got {m}")
    return factorize(m).is_squarefree()


@dataclass(frozen=True)
class FactorStream:
    """Multiplicative data of a value array, from one trial-division pass.

    Every prime up to ``bound`` = floor(cbrt(max value)) has been divided
    out; ``hits[i]`` counts the values divisible by ``primes[i]``.  Each
    prime factor of a ``cofactor`` exceeds the bound, and a product of three
    would exceed the largest value: a cofactor is 1, a prime, p^2 or pq.
    """

    bound: int
    primes: np.ndarray      # the primes up to the bound, ascending
    hits: np.ndarray        # hits[i] = #{values divisible by primes[i]}
    small_max: np.ndarray   # int16: largest prime up to the bound dividing each value, 1 if none
    cofactor: np.ndarray    # int64
    root: np.ndarray        # isqrt(cofactor)
    squarefree: np.ndarray  # bool

    @property
    def square(self) -> np.ndarray:
        """Cofactors of the form p^2."""
        return (self.cofactor > 1) & (self.root * self.root == self.cofactor)

    @property
    def log_sum(self) -> float:
        """sum over values of log p over the distinct primes p | value.

        A cofactor contributes log r, or log sqrt(r) when r = p^2, so none
        is split; math.fsum makes the total independent of order.
        """
        r = np.where(self.square, self.root, self.cofactor)
        terms = [h * log(p) for p, h in zip(self.primes.tolist(), self.hits.tolist()) if h]
        return fsum(terms + np.log(r[r > 1].astype(np.float64)).tolist())

    def largest_prime(self) -> np.ndarray:
        """P(value) for every value, 1 for the value 1.

        Miller-Rabin tells a prime cofactor from pq; only the pq cofactors
        are split, by the deterministic rho.  A pq cofactor exceeds
        (bound+1)^2, so the test runs only above it.
        """
        out = self.small_max.astype(np.int64)
        sq = self.square
        out[sq] = self.root[sq]
        idx = np.flatnonzero((self.cofactor > 1) & ~sq)
        r = self.cofactor[idx]
        out[idx] = r
        maybe_pq = np.flatnonzero(r > (self.bound + 1) ** 2)
        for i in maybe_pq[~_is_sprp_bulk(r[maybe_pq])].tolist():
            n = int(r[i])
            d = _rho_split(n)
            out[idx[i]] = max(d, n // d)
        return out


# Jaeschke (Math. Comp. 61, 1993): no composite below 1.122e12 is a strong
# probable prime to all four bases
_MR_BASES = (2, 13, 23, 1662803)


def _mulmod(a: np.ndarray, b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a*b mod n elementwise for 0 <= a, b < n < 2^40, exact in int64:
    b splits into 20-bit halves, so no product reaches 2^61."""
    hi = (a * (b >> 20)) % n
    return ((hi << 20) + a * (b & 0xFFFFF)) % n


def _is_sprp_bulk(n: np.ndarray) -> np.ndarray:
    """Primality of int64 n with 4 < n < 2^40 by strong probable-prime
    tests to _MR_BASES (an even n fails base 2); deterministic below 1.122e12."""
    d = n - 1
    s = np.zeros(n.shape, dtype=np.int64)
    while True:
        even = (d & 1) == 0
        if not even.any():
            break
        d = np.where(even, d >> 1, d)
        s += even
    ok = np.ones(n.shape, dtype=bool)
    for a in _MR_BASES:
        b = a % n
        divides_base = b == 0
        x = np.ones_like(n)
        e = d.copy()
        while e.any():
            x = np.where(e & 1, _mulmod(x, b, n), x)
            b = _mulmod(b, b, n)
            e >>= 1
        passed = divides_base | (x == 1) | (x == n - 1)
        for k in range(1, int(s.max(initial=0))):
            x = _mulmod(x, x, n)
            passed |= (k < s) & (x == n - 1)
        ok &= passed
    return ok


def factor_stream(values: np.ndarray) -> FactorStream:
    """Exact FactorStream of int64 values in [1, SQUAREFREE_BULK_MAX].

    One floor-divide pass per prime up to cbrt(max) finds the values it
    divides; the p^2 test and the full divide-out touch only those.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) < 1:
        raise ValidationError("factor_stream requires values >= 1")
    v_max = int(v.max()) if v.size else 1
    check_range(v_max, 1, SQUAREFREE_BULK_MAX, "factor_stream value", name="largest value")
    bound = integer_root(v_max, 3)
    primes = _SMALL_PRIMES[: int(np.searchsorted(_SMALL_PRIMES, bound, side="right"))]

    # int32 halves the cost of the pass whenever the values fit
    r = v.astype(np.int32 if v_max < 2**31 else np.int64)
    q = np.empty_like(r)
    hit = np.empty(r.shape, dtype=bool)
    squarefree = np.ones(r.shape, dtype=bool)
    small_max = np.ones(r.shape, dtype=np.int16)  # the primes end below 2^15
    hits = np.zeros(primes.size, dtype=np.int64)
    for i, p in enumerate(primes.tolist()):
        np.floor_divide(r, p, out=q)
        np.multiply(q, p, out=q)
        np.equal(q, r, out=hit)
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            continue
        hits[i] = idx.size
        small_max[idx] = p
        sub = r[idx] // p
        again = np.flatnonzero(sub % p == 0)
        squarefree[idx[again]] = False
        while again.size:
            sub[again] //= p
            again = again[sub[again] % p == 0]
        r[idx] = sub
    del q, hit

    r = r.astype(np.int64)
    root = np.sqrt(r).astype(np.int64)
    root += (root + 1) ** 2 <= r
    root -= root * root > r
    squarefree &= (r == 1) | (root * root != r)
    return FactorStream(bound, primes, hits, small_max, r, root, squarefree)


def is_squarefree_bulk(values: np.ndarray) -> np.ndarray:
    """Vectorized squarefree test for int64 values up to SQUAREFREE_BULK_MAX."""
    return factor_stream(values).squarefree


def mobius_up_to(limit: int) -> np.ndarray:
    """Table of Moebius mu(d) for 0 <= d <= limit (index 0 is set to 0).

    Sign flips come from one pass per prime; a second stride per prime
    zeroes the multiples of p^2.
    """
    check_range(limit, 1, MOBIUS_LIMIT_GUARD, "mobius", name="limit")
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
