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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import fsum, isqrt, log
from typing import Callable, Iterator, Union

import numpy as np

from .arith import SQUAREFREE_BULK_MAX, _simple_sieve, divisible, factor_stream, has_square_factor
from .arith import is_squarefree_bulk  # unused here; perfbench/tracing.py wraps this name
from .arith import factorize, primes_up_to  # unused here; perfbench/tracing.py wraps these names
from .errors import GuardError, ValidationError, check_range
from .pscore import ExponentC, _floor_pow, exceeds, in_sorted, multiple_preimages, value_blocks
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
CONVOLUTION_EPS = Fraction(1, 100)  # the dyadic box: K = x^(c-1+6 eps), L = x^(1-6 eps)/5
# square_divisor_sum's work: each d costs at most min(x, V // d^2)
# elements, V = floor(x^c), tests or multiples as _by_multiples picks, and
# the guard bounds their sum: at x = 10^6, 2*10^9 tests at c = 5/2,
# D = 2000 (2.6-2.8 s), 1.08*10^9 multiples at c = 20/9, D = 10^4 (11-13 s)
SQUARE_DIVISOR_WORK_GUARD = 2 * 10**9
# its D weights and d^2 as arrays, and up to D kernel passes per block: 0.56 s
# at x = 2, c = 121/2; 2.4-2.5 s at x = 2*10^4, c = 16/5, x*D at the work guard
SQUARE_DIVISOR_D_GUARD = 10**5
# _by_multiples' cost rule: one multiple through pscore.multiple_preimages
# costs about as much as this many tests of arith.divisible on the value
# blocks, for uint32 and uint64 words (indexed by V >= 2^32).  Per element
# that is 10-20 ns against 0.45 and 1.0 ns; these two were the fastest of a
# sweep over 30/10 ... 240/80 in squarefree_density at x = 10^6 (c = 3/2,
# 8/7, 19/10) and 10^7 (8/7, 8/5, 3/2) on a 2-core Xeon, within 5% of each
# other from 30/10 to 120/40
MULTIPLE_COST = (60, 20)
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
        obj = asdict(self)
        if not self.extras:
            del obj["extras"]
        return json.dumps(obj, sort_keys=True)

    CSV_HEADER = "experiment,param_json,observed,reference,ratio,runtime_ms"


def _check_values(x: int, c: ExponentC, M: int = SQUAREFREE_BULK_MAX) -> None:
    """Refuse, before generating anything, values beyond M: by default
    SQUAREFREE_BULK_MAX, factor_stream's limit and the end of
    squarefree_density's sieve at sqrt(M).  floor(x^c) > M exactly when
    M + 1 > x^c fails."""
    if not exceeds(M + 1, x, Fraction(c.p, c.q)):
        raise GuardError(f"floor({x}^{c}) exceeds the value guard {M:.3g}")


def _by_multiples(s: np.ndarray, V: int, x: int) -> np.ndarray:
    """The cost rule: whether each modulus s is counted from its V // s
    multiples (pscore.multiple_preimages) rather than tested on the x
    values (arith.divisible): MULTIPLE_COST * (V // s) < x, in int64."""
    return V // s < -(-x // MULTIPLE_COST[V >= 2**32])


def _ms_since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def squarefree_density(x: int, c: ExponentC) -> ExperimentReport:
    """#{n <= x : floor(n^c) squarefree} against the density (6/pi^2) x.

    A value k <= V = floor(x^c) is squarefree when no p^2 divides it, p a
    prime up to sqrt(V).  _by_multiples splits the primes by cost: the
    small p^2 are tested on every value block (arith.has_square_factor),
    and the large ones visit only their multiples up to V, of which
    pscore.multiple_preimages keeps the values.  Each of these, counted
    once, that no small p^2 divides is taken off the dense count.
    """
    # x-guard: 11 s, 42 MB at (10^8, 3/2); 1.9 s, 48 MB at (10^8, 8/7)
    check_range(x, 1, 10**8, "squarefree")
    _check_values(x, c)
    if not (1 < Fraction(c.p, c.q) < Fraction(149, 87)):
        warnings.warn(f"c={c} outside (1, 149/87); the density claim is unproven there")
    t0 = time.perf_counter()
    V = _floor_pow(x, c.p, c.q)
    primes = _simple_sieve(isqrt(V))
    sparse = _by_multiples(primes * primes, V, x)
    small, large = primes[~sparse], primes[sparse]
    observed = sum(v.size - int(np.count_nonzero(has_square_factor(v, small))) for v in value_blocks(1, x, c))
    found = [np.zeros(0, dtype=np.int64)] + [k for _, k, _ in multiple_preimages(large * large, V, c)]
    marked = np.sort(np.concatenate(found))
    marked = marked[np.flatnonzero(np.diff(marked, prepend=0))]  # a k with two large p^2 once
    observed -= int(np.count_nonzero(~has_square_factor(marked, small)))
    return ExperimentReport(
        "squarefree_density", {"x": x, "c": str(c)}, float(observed), SIX_OVER_PI_SQUARED * x, _ms_since(t0)
    )


def _count_divisible(
    s: np.ndarray, V: int, x: int, c: ExponentC, each_block: Callable[[np.ndarray], None] | None = None
) -> np.ndarray:
    """#{n <= x : s[i] | floor(n^c)} for each int64 modulus s[i] >= 1,
    V = floor(x^c), each from the side _by_multiples picks: from its
    multiples up to V (pscore.multiple_preimages), or by arith.divisible on
    the value blocks of n = 1..x.  The blocks are made only when a modulus
    is tested on them or each_block is given; each_block then receives
    every block, in order, on the same walk."""
    sparse = _by_multiples(s, V, x)
    which = [np.zeros(0, dtype=np.int64)] + [i for i, _, _ in multiple_preimages(s[sparse], V, c)]
    counts = np.zeros(s.size, dtype=np.int64)
    counts[sparse] = np.bincount(np.concatenate(which), minlength=int(np.count_nonzero(sparse)))
    dense, moduli = ~sparse, s[~sparse]
    if moduli.size or each_block is not None:
        for v in value_blocks(1, x, c):
            counts[dense] += np.array([np.count_nonzero(hit) for hit in divisible(v, moduli)], dtype=np.int64)
            if each_block is not None:
                each_block(v)
    return counts


def chebyshev_sum(x: int, c: ExponentC) -> ExperimentReport:
    """sum_{n<=x} sum_{p | floor(n^c)} log p against c*x*(log x - 1).

    Nothing is factored.  For v >= 1, sum_{p | v} log p = log v minus
    sum_p sum_{k >= 2} [p^k | v] log p, since sum_{k >= 1} [p^k | v]
    counts the exponent of p in v.  So the sum is sum_{n<=x} log floor(n^c)
    minus #{n <= x : p^k | floor(n^c)} log p over the prime powers
    p^k <= V = floor(x^c), k >= 2, counted by _count_divisible on the same
    walk over the values that sums their logs.  Each block's log sum is one
    np.sum over its CHUNK preimages, a fixed-block pairwise reduction, and
    all of them, with every -count log p, feed one math.fsum, which is
    correctly rounded; so the result depends on neither the order of the
    terms nor anything but x and c.  The reference keeps the second-order
    term of sum log(floor(n^c)) ~ c x (log x - 1); at desk scale the naive
    c x log x would hide the convergence behind a ~7 percent offset.
    """
    check_range(x, 1, 10**6, "Chebyshev")
    _check_values(x, c)
    t0 = time.perf_counter()
    V = _floor_pow(x, c.p, c.q)
    # every p^k <= V, k >= 2, with its p; p^(k+1) is formed only below V
    p = _simple_sieve(isqrt(V))
    pk = p * p
    primes, powers = [p], [pk]
    while p.size:
        more = pk <= V // p
        p, pk = p[more], pk[more] * p[more]
        primes.append(p)
        powers.append(pk)
    p, pk = np.concatenate(primes), np.concatenate(powers)
    terms: list[float] = []
    counts = _count_divisible(pk, V, x, c, lambda v: terms.append(float(np.sum(np.log(v)))))
    observed = fsum(terms + (-counts * np.log(p)).tolist())
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


def _largest_primes(x: int, c: ExponentC) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(ns, P(floor(n^c))) per value block for n = 2..x, the stream of
    smooth_count and large_pf_exceed, factored one block at a time."""
    start = 2
    for v in value_blocks(2, x, c):
        yield np.arange(start, start + v.size, dtype=np.int64), factor_stream(v).largest_prime()
        start += v.size


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
    e = Fraction(eps)
    observed = sum(int(np.count_nonzero(~_exceeds_power(P, ns, e))) for ns, P in _largest_primes(x, c))
    params, reference = {"x": x, "c": str(c), "eps": float(eps)}, float(x) ** (1.0 - float(eps))
    return ExperimentReport("smooth_count", params, float(observed), reference, _ms_since(t0))


def large_pf_exceed(x: int, c: ExponentC, theta: Exponent, eps: Exponent) -> ExperimentReport:
    """#{2 <= n <= x : P(floor(n^c)) > n^(theta-eps)} against reference x.

    theta - eps is taken at its exact rational value (floats at their
    binary values), and the comparison with n^(theta-eps) is exact.  The
    report's extras carry the deciles of log P(floor(n^c)) / log n, the
    empirical distribution behind the lower-bound exponent; only these
    x - 1 exponents are held whole, each block's P is dropped once read.
    """
    try:  # Fraction refuses nan and inf; float refuses a Fraction beyond float64
        e = Fraction(theta) - Fraction(eps)
        float(e)  # _exceeds_power takes float(e)
        params = {"x": x, "c": str(c), "theta": float(theta), "eps": float(eps)}
    except (OverflowError, ValueError) as exc:
        raise ValidationError(f"theta={theta}, eps={eps} and theta - eps must be finite in float64") from exc
    check_range(x, 2, 10**6, "largest-prime")
    _check_values(x, c)
    t0 = time.perf_counter()
    observed = 0
    exponents = np.empty(x - 1)
    for ns, P in _largest_primes(x, c):
        observed += int(np.count_nonzero(_exceeds_power(P, ns, e)))
        exponents[ns[0] - 2 : ns[-1] - 1] = np.log(P.astype(np.float64)) / np.log(ns.astype(np.float64))
    deciles = {f"d{k}0": float(v) for k, v in enumerate(np.percentile(exponents, range(10, 100, 10)), 1)}
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
    _check_values(x, c, 2**63 - 1)  # V below is int64, and so are the values tested
    e = Fraction(c.p, c.q)
    if exceeds(D, x, e / 2):
        raise ValidationError(f"D={D} exceeds x^(c/2)")
    check_range(D, 1, SQUARE_DIVISOR_D_GUARD, "square-divisor D", name="D")
    ds = np.arange(D + 1, 2 * D + 1, dtype=np.int64)
    V = _floor_pow(x, c.p, c.q)
    visits = np.minimum(V // ds**2, x)
    check_range(int(visits.sum()), 0, SQUARE_DIVISOR_WORK_GUARD, "square-divisor work", name="sum of min(x, x^c/d^2)")
    if exceeds(D, x, 2 - e):
        warnings.warn("D beyond x^(2-c): outside the proven main-term range")
    zd = np.asarray(z(ds), dtype=np.float64)
    if zd.size and np.max(np.abs(zd)) > 2.0 * np.log(np.maximum(ds, 2)).max() + 1e-9:
        warnings.warn("weights exceed the 2 log d envelope")
    # the nonzero weights and their d^2 in d order, each d counted as
    # _by_multiples picks; lhs is the sum in d order
    nonzero = zd != 0.0
    squares, weights = ds[nonzero] ** 2, zd[nonzero]
    lhs = 0.0
    for w, n in zip(weights.tolist(), _count_divisible(squares, V, x, c).tolist()):
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
    r, mod, observed = a % q, np.array([q], dtype=np.int64), 0
    for v in value_blocks(N + 1, 2 * N, c):
        # every value exceeds N >= q > r, so v - r >= 0 suits divisible; a
        # block of values past 2^63 holds Python ints, which take % (the
        # q-guard admits such values only with q = 1)
        hit = v % q == r if v.dtype == object else next(divisible(v - r, mod))
        observed += int(np.count_nonzero(hit))
    params = {"N": N, "c": str(c), "q": q, "a": a}
    return ExperimentReport("residue_equidistribution", params, float(observed), N / q, _ms_since(t0))


def convolution_count(
    x: int,
    c: ExponentC,
    predicate: Callable[[np.ndarray], np.ndarray],
) -> float:
    """sum_{n<=x} of the dyadic-box convolution R(n) = sum a_k a_l over
    k*l = floor(n^c), with the exact floors K = floor(x^(c-1+6 eps)) and
    L = floor(floor(x^(1-6 eps))/5) at eps = CONVOLUTION_EPS.

    For each k with a nonzero weight, the products k*l are looked up in the
    generated values floor(n^c), n <= x, so a match is a value with a
    preimage n <= x by construction.  The products stay below
    4KL <= 0.8 x^c, inside the generated range.
    """
    check_range(x, 2, 10**5, "convolution")
    e, f = Fraction(c.p, c.q) - 1 + 6 * CONVOLUTION_EPS, 1 - 6 * CONVOLUTION_EPS
    # exact floors; a K past its guard stands at guard + 1, refused below
    # before the power x^e is formed
    K = CONVOLUTION_K_GUARD + 1
    if exceeds(K, x, e):
        K = _floor_pow(x, e.numerator, e.denominator)
    L = max(_floor_pow(x, f.numerator, f.denominator) // 5, 1)
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
