"""Prime generation, factorization and multiplicative predicates.

Everything here is deterministic: primality uses a fixed strong-probable-
prime base set that is proven complete below 3.3e24, and the rho cycle
finder uses the fixed polynomial x^2 + 1 with deterministic restart
increments, so repeated runs factor every input identically.
``factor_stream`` factors a value array as given, in one division-free
trial-division pass; the harnesses hand it one value block at a time.  Its
pq cofactors are split together by a lockstep rho on the same x^2 + 1,
which hands each element it cannot split (about 1%) to the scalar rho.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log, prod
from typing import Iterator

import numpy as np

from .errors import GuardError, ValidationError, check_range
from .pscore import integer_root

SIEVE_LIMIT_GUARD = 10**9
FACTOR_GUARD = 10**14
# factor_stream's limit: its cube root, 10^4, ends _SMALL_PRIMES; it lies
# below 2^40, where _mulmod's 20-bit halves stay exact in int64, and below
# 1.122e12, where _MR_BASES are proven complete
SQUAREFREE_BULK_MAX = 10**12
# odd numbers per sieve segment, 512 KiB of flags: at 10^7 and 10^8 as fast
# as 2^20 and faster than 2^18; at 10^9 about 10% behind 2^20 (2 MiB L2/core)
SEGMENT_SIZE = 1 << 19

# strong-probable-prime bases covering all n < 3.317e24 (first 13 primes)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class SieveCache:
    """The primes up to a primes_up_to limit.

    The array is read-only, so primes_up_to can hand one sieve to every
    caller; safe to share across threads.
    """

    primes: np.ndarray  # ascending int64
    spf: None = None  # always None; perfbench/tracing.py's _after_sieve reads it

    def __post_init__(self) -> None:
        self.primes.setflags(write=False)


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


# Odd-index pre-sieve pattern: entry m says whether 2m + 1 is coprime to
# 3*5*7*11*13; odd numbers repeat modulo 2*15015, so m repeats modulo 15015.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = prod(_PRESIEVE_PRIMES)
_PRESIEVE = np.gcd(2 * np.arange(_PRESIEVE_PERIOD) + 1, _PRESIEVE_PERIOD) == 1


@lru_cache(maxsize=1)
def primes_up_to(limit: int) -> SieveCache:
    """Segmented sieve of Eratosthenes over the odd numbers; exact prime list
    up to ``limit``.

    Segment flag i stands for lo + 2i.  Each segment starts as a slice of the
    3*5*7*11*13 pattern, so only the base primes above 13 stride it; the five
    pattern primes are flagged back in and 2 is prepended.  The last sieve is
    kept: callers at one limit share it.
    """
    check_range(limit, 0, SIEVE_LIMIT_GUARD, "sieve", name="limit")

    if limit < 2:
        return SieveCache(np.empty(0, dtype=np.int64))

    base = _simple_sieve(isqrt(limit))
    base = base[base > _PRESIEVE_PRIMES[-1]]
    # odd index m stands for 2m + 1; prime p strikes m = (p - 1)/2 (mod p),
    # from (p^2 - 1)/2 on
    first = (base - 1) // 2
    square = (base * base - 1) // 2
    m_end = (limit - 1) // 2 + 1
    span = min(SEGMENT_SIZE, m_end)
    pattern = np.tile(_PRESIEVE, -(-span // _PRESIEVE_PERIOD) + 1)
    # the guard keeps every prime below 2^31, so segments hold int32 and only
    # the joined array is int64
    chunks = [np.array([2], dtype=np.int32)]
    for m0 in range(0, m_end, SEGMENT_SIZE):
        m1 = min(m0 + SEGMENT_SIZE, m_end)
        r = m0 % _PRESIEVE_PERIOD
        seg = pattern[r : r + m1 - m0].copy()
        if m0 == 0:
            seg[0] = False  # the number 1
            seg[[(p - 1) // 2 for p in _PRESIEVE_PRIMES if p <= limit]] = True
        active = int(np.searchsorted(square, m1))
        starts = np.maximum((first[:active] - m0) % base[:active], square[:active] - m0)
        for p, s in zip(base[:active].tolist(), starts.tolist()):
            seg[s::p] = False
        chunks.append((np.flatnonzero(seg) * 2 + (2 * m0 + 1)).astype(np.int32))
    return SieveCache(np.concatenate(chunks, dtype=np.int64))


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

    def log_terms(self) -> list[float]:
        """The terms whose sum is the sum over values of log p over the
        distinct primes p | value: hits * log p for each prime up to the
        bound that divides a value, then log r, or log sqrt(r) when r = p^2,
        for each cofactor r > 1, so no cofactor is split.  A caller that
        factors block by block feeds every block's terms to one math.fsum,
        which is correctly rounded and so independent of order."""
        r = np.where(self.square, self.root, self.cofactor)
        terms = [h * log(p) for p, h in zip(self.primes.tolist(), self.hits.tolist()) if h]
        terms += np.log(r[r > 1].astype(np.float64)).tolist()
        return terms

    def largest_prime(self) -> np.ndarray:
        """P(value) for every value, 1 for the value 1.

        Miller-Rabin tells a prime cofactor from pq; only the pq cofactors
        are split, all at once by the lockstep rho.  A pq cofactor exceeds
        (bound+1)^2, so the test runs only above it.  Either prime of pq
        gives the same max(d, pq/d), so the split found does not matter.
        """
        out = self.small_max.astype(np.int64)
        sq = self.square
        out[sq] = self.root[sq]
        idx = np.flatnonzero((self.cofactor > 1) & ~sq)
        r = self.cofactor[idx]
        out[idx] = r
        maybe_pq = np.flatnonzero(r > (self.bound + 1) ** 2)
        pq = maybe_pq[~_is_sprp_bulk(r[maybe_pq])]
        n = r[pq]
        d = _rho_split_bulk(n)
        out[idx[pq]] = np.maximum(d, n // d)
        return out


# Jaeschke (Math. Comp. 61, 1993): no composite below 1.122e12 is a strong
# probable prime to all four of _MR_BASES, and none below 4,759,123,141 to
# all three of _MR_BASES_SMALL; _is_sprp_bulk takes the smaller set when
# every n lies below that bound
_MR_BASES = (2, 13, 23, 1662803)
_MR_BASES_SMALL = (2, 7, 61)
_MR_SMALL_BOUND = 4_759_123_141
# the largest n with (n - 1)^2 < 2^63: up to it a*b % n is exact in int64
_MULMOD_ONE_STEP_MAX = 3_037_000_499
# Brent's rho: steps whose |x - y| are multiplied together before one gcd
_RHO_BATCH = 16


def _mulmod(a: np.ndarray, b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a*b mod n elementwise for 0 <= a, b < n < 2^40, exact in int64.

    One step, a*b % n, when n.max() <= _MULMOD_ONE_STEP_MAX; above it b
    splits into 20-bit halves, so no product reaches 2^61."""
    if n.max(initial=0) <= _MULMOD_ONE_STEP_MAX:
        return a * b % n
    hi = (a * (b >> 20)) % n
    return ((hi << 20) + a * (b & 0xFFFFF)) % n


def _is_sprp_bulk(n: np.ndarray) -> np.ndarray:
    """Primality of int64 n with 4 < n < 2^40 by strong probable-prime
    tests (an even n fails base 2): to _MR_BASES_SMALL when n.max() <
    4,759,123,141, else to _MR_BASES; deterministic below 1.122e12."""
    bases = _MR_BASES_SMALL if n.max(initial=0) < _MR_SMALL_BOUND else _MR_BASES
    s = np.bitwise_count(((n - 1) & (1 - n)) - 1)  # n - 1 = 2^s d: its lowest set bit
    d = (n - 1) >> s
    live, m = np.arange(n.size), n
    for a in bases:
        b = a % m
        divides_base = b == 0
        x = np.ones_like(m)
        e = d
        while e.any():
            x = np.where((e & 1) == 1, _mulmod(x, b, m), x)
            b = _mulmod(b, b, m)
            e = e >> 1
        passed = divides_base | (x == 1) | (x == m - 1)
        for k in range(1, int(s.max(initial=0))):
            x = _mulmod(x, x, m)
            passed |= (k < s) & (x == m - 1)
        # the next base runs only on the n that passed this one
        live, m, d, s = live[passed], m[passed], d[passed], s[passed]
    ok = np.zeros(n.shape, dtype=bool)
    ok[live] = True
    return ok


def _rho_split_bulk(n: np.ndarray) -> np.ndarray:
    """A nontrivial factor of each composite int64 n < 2^40 that is not a
    prime power.

    Brent's rho on x^2 + 1 from 2 runs on every n in lockstep: all follow
    one schedule, and each batch of _RHO_BATCH products |x - y| ends in one
    np.gcd, after which the split n drop out.  A batch whose gcd reaches n
    itself is kept (its x, its first y and n) and, after the loop, all such
    batches are re-stepped together one step at a time, each step with its
    own gcd (Brent, BIT 20, 1980): the earlier batches' gcds were 1, so some
    step of the batch has a gcd > 1, and only an n whose first such gcd is
    n itself goes to the scalar _rho_split, which changes the polynomial.
    large_pf_exceed hands on 151 of 12581 pq cofactors at (10^5, 8/5) this
    way, against 1769 without the backtrack.
    """
    def step(v: np.ndarray, m: np.ndarray) -> np.ndarray:
        v = _mulmod(v, v, m) + 1
        v[v == m] = 0
        return v

    d = n.copy()
    live, m = np.arange(n.size), n
    y = np.full(n.shape, 2, dtype=np.int64)
    q = np.ones_like(n)
    r = 1
    whole = [(live[:0],) * 4]  # (index, x, first y, n) of each batch whose gcd reached n
    while live.size:
        x = y
        for _ in range(r):
            y = step(y, m)
        k = 0
        while k < r and live.size:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = step(y, m)
                q = _mulmod(q, np.abs(x - y), m)
            g = np.gcd(q, m)
            done = g > 1
            d[live[done]] = g[done]
            w = g == m
            whole.append((live[w], x[w], ys[w], m[w]))
            keep = ~done
            live, m, x, y, q = live[keep], m[keep], x[keep], y[keep], q[keep]
            k += _RHO_BATCH
        r *= 2
    live, x, y, m = (np.concatenate(a) for a in zip(*whole))
    for _ in range(_RHO_BATCH):
        if not live.size:
            break
        y = step(y, m)
        g = np.gcd(np.abs(x - y), m)
        done = g > 1
        d[live[done]] = g[done]
        keep = ~done
        live, m, x, y = live[keep], m[keep], x[keep], y[keep]
    for i in np.flatnonzero(d == n).tolist():
        d[i] = _rho_split(int(n[i]))
    return d


def factor_stream(values: np.ndarray) -> FactorStream:
    """Exact FactorStream of int64 values in [1, SQUAREFREE_BULK_MAX].

    The bound is the cube root of the largest of these values, so a block
    of small values is divided by fewer primes.  One division-free pass
    over the values, held as unsigned w-bit words (w = 32 when the largest
    value fits, else 64), tests each odd p by _inverses, whose product
    u * inv(p) is then the exact quotient u/p, which the p^2 test and the
    divide-out reuse.  The power of 2 dividing u is its lowest set bit,
    shifted out at once.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) < 1:
        raise ValidationError("factor_stream requires values >= 1")
    v_max = int(v.max()) if v.size else 1
    check_range(v_max, 1, SQUAREFREE_BULK_MAX, "factor_stream value", name="largest value")
    bound = integer_root(v_max, 3)
    primes = _SMALL_PRIMES[: int(np.searchsorted(_SMALL_PRIMES, bound, side="right"))]

    word = np.uint32 if v_max < 2**32 else np.uint64
    r = v.astype(word)
    squarefree = np.ones(v.shape, dtype=bool)
    small_max = np.ones(v.shape, dtype=np.int16)  # the primes end below 2^15
    hits = np.zeros(primes.size, dtype=np.int64)
    if primes.size:  # primes, when any, start at 2
        low = r & (~r + 1)
        even = low > 1
        hits[0] = np.count_nonzero(even)
        small_max[even] = 2
        squarefree[low > 2] = False
        r >>= np.bitwise_count(low - 1)
    prod, hit = np.empty_like(r), np.empty(r.shape, dtype=bool)
    for i, (p, inv, lim) in enumerate(zip(primes[1:].tolist(), *_inverses(primes[1:], word)), 1):
        np.multiply(r, inv, out=prod)
        np.less_equal(prod, lim, out=hit)
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            continue
        hits[i] = idx.size
        small_max[idx] = p
        sub = prod[idx]  # u/p
        quot = sub * inv
        again = np.flatnonzero(quot <= lim)
        squarefree[idx[again]] = False
        quot = quot[again]
        while again.size:
            sub[again] = quot  # u/p^k, and quot * inv tests p^(k+1)
            quot = quot * inv
            keep = quot <= lim
            again, quot = again[keep], quot[keep]
        r[idx] = sub
    cofactor = r.astype(np.int64)
    root = np.sqrt(cofactor).astype(np.int64)
    root += (root + 1) ** 2 <= cofactor
    root -= root * root > cofactor
    squarefree &= (cofactor == 1) | (root * root != cofactor)
    return FactorStream(bound, primes, hits, small_max, cofactor, root, squarefree)


def _inverses(odd: np.ndarray, word: type) -> tuple[np.ndarray, np.ndarray]:
    """(inv, lim) as w-bit words of type word for odd int64 moduli o: o
    divides a word u exactly when u * inv mod 2^w <= lim = (2^w - 1) // o,
    and that product is then u/o (Granlund and Montgomery, PLDI 1994, §9).
    inv = o^-1 mod 2^64 by Newton's inv <- inv (2 - o inv) from inv = o,
    right to 3 bits (o^2 = 1 mod 8) and doubling them each step: five steps
    reach 96.  lim comes from the full modulus in uint64, so an o above 2^w
    has lim 0 and divides only 0."""
    o = np.asarray(odd, dtype=np.uint64)
    inv = o.copy()
    for _ in range(5):
        inv *= 2 - o * inv
    return inv.astype(word), (np.uint64(np.iinfo(word).max) // o).astype(word)


def divisible(values: np.ndarray, moduli: np.ndarray) -> Iterator[np.ndarray]:
    """Whether m divides each value in [0, 2^63), one bool array per int64
    modulus m >= 1 in turn, each overwritten by the next.

    As in factor_stream, the values are w-bit words: m = 2^k o takes one
    multiply and one compare for o (_inverses), and u & (2^k - 1) == 0 for
    2^k, the int64 mask cut to w bits, all of them from k = w on.
    """
    v = np.asarray(values, dtype=np.int64)
    u = v.astype(np.uint32 if v.size == 0 or int(v.max()) < 2**32 else np.uint64)
    low = moduli & -moduli
    prod, hit = np.empty_like(u), np.empty(u.shape, dtype=bool)
    for inv, lim, mask in zip(*_inverses(moduli // low, u.dtype.type), (low - 1).astype(u.dtype)):
        np.multiply(u, inv, out=prod)
        np.less_equal(prod, lim, out=hit)
        if mask:
            hit &= (u & mask) == 0
        yield hit


def has_square_factor(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Whether p^2 divides each value in [0, 2^63) for some p of the
    primes: the OR of divisible over the p^2."""
    out = np.zeros(np.shape(values), dtype=bool)
    for hit in divisible(values, primes * primes):
        out |= hit
    return out


def is_squarefree_bulk(values: np.ndarray) -> np.ndarray:
    """Vectorized squarefree test for int64 values up to SQUAREFREE_BULK_MAX."""
    return factor_stream(values).squarefree


def euler_phi(d: int) -> int:
    """Euler's totient via the factorization of d."""
    out = d
    for p, _ in factorize(d).entries:
        out -= out // p
    return out
