"""Korselt-criterion machinery and search for Carmichael numbers whose
prime factors all belong to the value sequence floor(n^c).

The infinitude statement is not desk-verifiable; the contract here is
exact finite search (plus the exact rational range constants living in
exppairs), which exercises every computable facet of the construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt
from typing import Optional

import numpy as np

from .arith import FactorMap, factorize, primes_up_to
from .errors import ValidationError, check_range
from .pscore import ExponentC, is_ps_value

SEARCH_GUARD = 10**9
SEGMENT = 1 << 20  # numbers per Korselt-sieve segment, about 20 MB of work arrays


@dataclass(frozen=True)
class CarmichaelRecord:
    """A Carmichael number, its factorization, and per-prime membership
    status in the value sequence for the chosen exponent."""

    N: int
    factors: FactorMap
    ps_status: tuple[bool, ...]

    @property
    def all_ps(self) -> bool:
        return all(self.ps_status)

    def to_json_line(self, c: ExponentC) -> str:
        return json.dumps(
            {
                "N": self.N,
                "factors": list(self.factors.primes()),
                "ps": list(self.ps_status),
                "c": str(c),
            }
        )


def _korselt_factors(N: int, fm: FactorMap) -> bool:
    """Korselt's criterion for N, decided from its factorization fm."""
    if len(fm.entries) < 2 or not fm.is_squarefree():
        return False
    return all((N - 1) % (p - 1) == 0 for p in fm.primes())


def korselt(N: int) -> bool:
    """True iff N is composite, squarefree, and p-1 | N-1 for every p | N."""
    if N < 2:
        raise ValidationError(f"korselt requires N >= 2, got {N}")
    return _korselt_factors(N, factorize(N))


def _record(N: int, fm: FactorMap, c: ExponentC) -> CarmichaelRecord:
    return CarmichaelRecord(N, fm, tuple(is_ps_value(p, c).is_member for p in fm.primes()))


def is_ps_carmichael(N: int, c: ExponentC) -> Optional[CarmichaelRecord]:
    """The record for N when N is Carmichael with every factor a sequence
    value under c; None otherwise.  N is factored once."""
    if N < 2:
        raise ValidationError(f"N must be >= 2, got {N}")
    fm = factorize(N)
    if not _korselt_factors(N, fm):
        return None
    rec = _record(N, fm, c)
    return rec if rec.all_ps else None


def carmichael_numbers_up_to(limit: int) -> list[int]:
    """All Carmichael numbers <= limit, by a segmented Korselt sieve.

    Every prime factor p of a Carmichael number N has p < sqrt(N): since
    N - 1 = (N/p - 1) p + (p - 1), p - 1 | N - 1 forces p - 1 | N/p - 1, so
    N/p > p.  The odd primes up to sqrt(limit) therefore suffice.  For a
    multiple N of p, p - 1 | N - 1 means N = p (mod p(p-1)); per N, each
    segment multiplies the primes p meeting that.  N is Carmichael exactly
    when the product is N (so N is squarefree) with at least three factors.
    """
    check_range(limit, 0, SEARCH_GUARD, "Carmichael search", name="limit")
    if limit < 561:
        return []
    sieving = [int(p) for p in primes_up_to(isqrt(limit)).primes[1:]]
    out: list[int] = []
    for lo in range(1, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        prod = np.ones(hi - lo, dtype=np.int64)  # divides N, so never overflows
        count = np.zeros(hi - lo, dtype=np.uint8)
        for p in sieving:
            if p * p >= hi:
                break
            step = p * (p - 1)
            first = (p - lo) % step
            if first < hi - lo:  # most large p have no hit in a segment
                prod[first::step] *= p
                count[first::step] += 1
        N = np.arange(lo, hi, dtype=np.int64)
        out.extend(N[(prod == N) & (count >= 3)].tolist())
    return out


def search_ps_carmichael(limit: int, c: ExponentC, require_all: bool = True) -> list[CarmichaelRecord]:
    """All Carmichael numbers <= limit, ascending, with exact membership
    witnesses under c for their factors; with ``require_all``, only those
    whose factors are all sequence values."""
    records = [_record(N, factorize(N), c) for N in carmichael_numbers_up_to(limit)]
    return [r for r in records if r.all_ps] if require_all else records


def fermat_holds(N: int, bases: tuple[int, ...] = (2, 3, 5, 7)) -> bool:
    """Direct modular check of a^N = a (mod N) for the given bases."""
    return all(pow(a, N, N) == a % N for a in bases)
