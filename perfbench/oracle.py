"""Independent reference values for the benchmark's output checks.

Nothing here imports pslab.  Each oracle recomputes a harness output by a
different route: its own sieve and smallest-prime-factor table, exact
integer roots in Python integers, ``math.fsum`` for float sums, and mpmath
(Hurwitz zeta) for the count decomposition.

Full-size values are computed once and frozen in ``frozen.json``:

    python3 perfbench/oracle.py          # recompute every full-size value

Reduced inputs (the self-test) are computed live.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

FROZEN_PATH = Path(__file__).with_name("frozen.json")


def _frac(c: str) -> tuple[int, int]:
    f = Fraction(c)
    return f.numerator, f.denominator


# ---------------------------------------------------------------------------
# exact building blocks
# ---------------------------------------------------------------------------

def prime_flags(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes(n: int) -> np.ndarray:
    return np.flatnonzero(prime_flags(n)).astype(np.int64)


def spf_table(n: int) -> np.ndarray:
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in primes(math.isqrt(n)):
        p = int(p)
        s = spf[p * p :: p]
        s[s == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset
    return spf


def exact_root(m: int, q: int, guess: int) -> int:
    """Largest r with r^q <= m, walked from a nearby guess."""
    r = max(guess, 0)
    while r > 0 and r**q > m:
        r -= 1
    while (r + 1) ** q <= m:
        r += 1
    return r


def floor_pow(ns: np.ndarray, p: int, q: int) -> np.ndarray:
    """floor(n^(p/q)) for every n, exact.

    libm pow is within a few ulp, so a float64 candidate is off by at most
    ~5e-15 v; every element whose fraction lies within 1e-12 v_max of an
    integer (a 200x margin) is settled in Python integers.
    """
    ns = np.asarray(ns, dtype=np.int64)
    v = ns.astype(np.float64) ** (p / q)
    k = np.floor(v).astype(np.int64)
    band = max(1e-6, float(v.max()) * 1e-12)
    frac = v - np.floor(v)
    for i in np.flatnonzero((frac < band) | (frac > 1.0 - band)):
        k[i] = exact_root(int(ns[i]) ** p, q, int(k[i]))
    return k


def is_sequence_value(k: int, p: int, q: int) -> bool:
    """k = floor(n^(p/q)) for some n, i.e. k^q <= n^p < (k+1)^q."""
    kq = k**q
    n = max(int(k ** (q / p)), 1)
    while n**p < kq:
        n += 1
    while n > 1 and (n - 1) ** p >= kq:
        n -= 1
    return n**p < (k + 1) ** q


def _phi(d: int) -> int:
    return sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1)


def _coprime_residues(d: int) -> list[int]:
    return [a for a in range(d) if math.gcd(a, d) == 1]


# ---------------------------------------------------------------------------
# oracles, one per checked output
# ---------------------------------------------------------------------------

def squarefree_count(x: int, c: str) -> int:
    """#{n <= x : floor(n^c) squarefree}, by trial division with p^2 for
    every prime p <= sqrt(max value)."""
    p, q = _frac(c)
    v = floor_pow(np.arange(1, x + 1), p, q)
    bad = np.zeros(v.size, dtype=bool)
    for pr in primes(math.isqrt(int(v.max()))):
        bad |= v % (int(pr) * int(pr)) == 0
    return int(np.count_nonzero(~bad))


def chebyshev_sum(x: int, c: str) -> float:
    """sum_{n<=x} sum_{p | floor(n^c)} log p, walked through an spf table
    and summed with math.fsum."""
    p, q = _frac(c)
    v = floor_pow(np.arange(1, x + 1), p, q)
    spf = spf_table(int(v.max()))
    logs = []
    for m in v.tolist():
        while m > 1:
            pr = int(spf[m])
            logs.append(math.log(pr))
            while m % pr == 0:
                m //= pr
    return math.fsum(logs)


def large_pf_count(x: int, c: str, theta: str) -> int:
    """#{2 <= n <= x : P(floor(n^c)) > n^theta}, compared exactly as
    P^den > n^num for theta = num/den."""
    p, q = _frac(c)
    tn, td = _frac(theta)
    ns = np.arange(2, x + 1, dtype=np.int64)
    rem = floor_pow(ns, p, q)
    big = np.ones(rem.size, dtype=np.int64)
    for pr in primes(math.isqrt(int(rem.max()))):
        pr = int(pr)
        hit = rem % pr == 0
        if not hit.any():
            continue
        big[hit] = pr
        while hit.any():
            rem[hit] //= pr
            hit &= rem % pr == 0
    big = np.maximum(big, rem)  # what is left is 1 or a prime above sqrt
    return sum(1 for n, P in zip(ns.tolist(), big.tolist()) if P**td > n**tn)


def residue_counts(N: int, c: str, q: int) -> list[int]:
    """#{N < n <= 2N : floor(n^c) = a (mod q)} for a = 0 .. q-1."""
    p, qq = _frac(c)
    v = floor_pow(np.arange(N + 1, 2 * N + 1), p, qq)
    return np.bincount(v % q, minlength=q).tolist()


def _sequence_primes(x: int, c: str) -> np.ndarray:
    """Primes <= x that are values floor(n^c): exact values for
    n = 1 .. x^gamma + 1 indexed into a prime-flag array."""
    p, q = _frac(c)
    n_top = exact_root(x**q, p, int(x ** (q / p))) + 1
    v = floor_pow(np.arange(1, n_top + 1), p, q)
    v = v[v <= x]
    return v[prime_flags(x)[v]]


def ps_prime_counts(x: int, c: str, moduli: list[int]) -> dict:
    """Total count of sequence primes <= x and the count in every coprime
    progression a (mod d)."""
    ps = _sequence_primes(x, c)
    out = {"total": int(ps.size), "dividing": {}, "by_progression": {}}
    for d in moduli:
        out["dividing"][str(d)] = int(np.count_nonzero(d % ps == 0))
        for a in _coprime_residues(d):
            out["by_progression"][f"{d},{a}"] = int(np.count_nonzero(ps % d == a))
    return out


def brun_titchmarsh(count: int, x: int, c: str, d: int) -> float:
    """The report's constant count * phi(d) * log x / x^gamma."""
    p, q = _frac(c)
    return count * _phi(d) * math.log(x) / float(x) ** (q / p)


def ap_main_terms(x: int, c: str, moduli: list[int]) -> dict:
    """gamma * sum p^(gamma-1) over all primes p <= x, p = a (mod d)."""
    p, q = _frac(c)
    gamma = q / p
    pr = primes(x)
    out = {}
    for d in moduli:
        for a in _coprime_residues(d):
            sel = pr[pr % d == a].astype(np.float64)
            out[f"{d},{a}"] = gamma * math.fsum((sel ** (gamma - 1.0)).tolist())
    return out


def carmichael(limit: int) -> list[int]:
    """All Carmichael numbers <= limit by Korselt's criterion over an spf
    table: odd, composite, squarefree, and p - 1 | N - 1 for all p | N."""
    spf = spf_table(limit)
    N = np.arange(3, limit + 1, 2, dtype=np.int64)
    ok = spf[N] != N
    rem = N.copy()
    while True:
        act = ok & (rem > 1)
        if not act.any():
            break
        idx = np.flatnonzero(act)
        pr = spf[rem[idx]].astype(np.int64)
        rem[idx] //= pr
        ok[idx] &= (rem[idx] % pr != 0) & ((N[idx] - 1) % (pr - 1) == 0)
    return N[ok].tolist()


def _factor_small(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def ps_carmichael(limit: int, c: str) -> list[list]:
    """[N, primes] for the Carmichael numbers <= limit whose prime factors
    are all sequence values under c."""
    p, q = _frac(c)
    out = []
    for N in carmichael(limit):
        fs = _factor_small(N)
        if all(is_sequence_value(f, p, q) for f in fs):
            out.append([N, fs])
    return out


def eval_sum(A: float, e0: float, e1: float, M0: int, M1: int) -> list[float]:
    """sum over M0 < m <= 2 M0, M1 < n <= 2 M1 of e(A m^e0 n^e1), row by
    row, with the real and imaginary parts summed by math.fsum."""
    ns = np.arange(M1 + 1, 2 * M1 + 1, dtype=np.float64) ** e1
    re, im = [], []
    for m in range(M0 + 1, 2 * M0 + 1):
        ang = 2.0 * np.pi * np.mod((A * float(m) ** e0) * ns, 1.0)
        re.append(math.fsum(np.cos(ang).tolist()))
        im.append(math.fsum(np.sin(ang).tolist()))
    return [math.fsum(re), math.fsum(im)]


def erdos_turan_points(K: int) -> np.ndarray:
    """The point set the benchmark feeds erdos_turan_rhs: k^(2/3), k <= K."""
    return np.arange(1, K + 1, dtype=np.float64) ** (2.0 / 3.0)


def erdos_turan(K: int, H: int) -> float:
    """K/(H+1) + 3 sum_h |S_h|/h, S_h = sum_k e(h t_k), one h at a time,
    angles reduced mod 1 before the trig calls, sums by math.fsum."""
    t = erdos_turan_points(K)
    terms = [K / (H + 1)]
    for h in range(1, H + 1):
        ang = 2.0 * np.pi * np.mod(t * float(h), 1.0)
        s = math.hypot(math.fsum(np.cos(ang).tolist()), math.fsum(np.sin(ang).tolist()))
        terms.append(3.0 * s / h)
    return math.fsum(terms)


def count_decomposition(K: int, c: str) -> list[float]:
    """(main, correction, exact) for the weight z = 1, in closed form:

        main       = gamma (zeta(1-gamma) - zeta(1-gamma, K+1))   (Hurwitz)
        correction = psi(-(K+1)^gamma) - psi(-1)                   (telescopes)
        exact      = #{n : n^p < (K+1)^q}
    """
    import mpmath

    p, q = _frac(c)
    mpmath.mp.dps = 40
    g = mpmath.mpf(q) / p
    s = 1 - g
    main = g * (mpmath.zeta(s) - mpmath.zeta(s, K + 1))
    y = -((mpmath.mpf(K) + 1) ** g)
    psi = lambda t: t - mpmath.floor(t) - mpmath.mpf(1) / 2  # noqa: E731
    correction = psi(y) - psi(mpmath.mpf(-1))
    bound = (K + 1) ** q
    n = exact_root(bound - 1, p, int(float(bound) ** (1.0 / p)))
    return [float(main), float(correction), float(n)]


ORACLES = {
    "squarefree_count": squarefree_count,
    "chebyshev_sum": chebyshev_sum,
    "large_pf_count": large_pf_count,
    "residue_counts": residue_counts,
    "ps_prime_counts": ps_prime_counts,
    "ap_main_terms": ap_main_terms,
    "carmichael": carmichael,
    "ps_carmichael": ps_carmichael,
    "eval_sum": eval_sum,
    "erdos_turan": erdos_turan,
    "count_decomposition": count_decomposition,
}


def key(kind: str, params: dict) -> str:
    return kind + json.dumps(params, sort_keys=True)


class Oracle:
    """Frozen values by key; live computation only when ``live`` is set."""

    def __init__(self, live: bool = False):
        self.live = live
        self.frozen = json.loads(FROZEN_PATH.read_text()) if FROZEN_PATH.is_file() else {}

    def __call__(self, kind: str, **params):
        k = key(kind, params)
        if k in self.frozen:
            return self.frozen[k]
        if not self.live:
            raise KeyError(f"no frozen oracle value for {k}")
        value = ORACLES[kind](**params)
        self.frozen[k] = value
        return value


# published values the frozen table must reproduce
LITERATURE = {
    # the exact count behind acceptance criterion 3
    key("squarefree_count", {"x": 10**6, "c": "3/2"}): 595619,
    # R. G. E. Pinch's count of Carmichael numbers below 10^7
    key("carmichael", {"limit": 10**7}): 105,
}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import oracle_requests

    frozen = {}
    for kind, params in oracle_requests():
        k = key(kind, params)
        print(f"computing {k}", flush=True)
        frozen[k] = ORACLES[kind](**params)
    for k, expect in LITERATURE.items():
        got = frozen[k] if isinstance(frozen[k], int) else len(frozen[k])
        if got != expect:
            print(f"{k}: oracle gives {got}, literature {expect}", file=sys.stderr)
            return 1
    FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} values to {FROZEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
