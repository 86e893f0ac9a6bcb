"""Direct evaluation of multilinear exponential sums with monomial phases,
plus calculators for every closed-form bound used in the ratio studies.

Bound formulas are implemented without implied constants; empirical
comparisons are ratio studies against envelope constants fixed by a
pre-build sweep (see tests/fixtures).  Dyadic ranges follow the m ~ M
convention M < m <= 2M.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError, check_range

TERM_GUARD = 10**8
# points per block of eval_sum: a block's temporaries stay near cache size
# instead of spanning the whole input; 2^15 gave the least eval_sum time of
# 2^12..2^15 (CHANGES.md)
BLOCK = 1 << 15

# e(x) = exp(2 pi i x) by table lookup plus a short series (Tang, ACM TOMS
# 15, 1989): e(x) = e(k/T) e(r/T) with x = n + (k + r)/T, |r| <= 1/2.
# T = 2^14 entries of complex128 (256 KB): at |angle| <= pi/T one cos term
# and two sin terms suffice for 1e-15 (at 2^13 the dropped cos term would be
# 9e-16), so e(x) costs about 15 array passes; 2^14 was also the fastest of
# 2^14, 2^15 and 2^16 in a sweep (CHANGES.md)
_T = 1 << 14


def _e_table() -> np.ndarray:
    # e(j/T) from cos and sin of an angle of at most pi/4 and a quarter
    # turn, so no entry is off by more than 1.2e-16 (checked at 100 bits)
    j = np.arange(_T)
    quarter = np.rint(j / (_T // 4))
    a = (np.pi / (_T // 2)) * (j - quarter * (_T // 4))
    c, s = np.cos(a), np.sin(a)
    q = quarter.astype(np.intp) % 4
    table = np.empty(_T, np.complex128)
    table.real = np.choose(q, [c, -s, -c, s])
    table.imag = np.choose(q, [s, c, -s, -c])
    return table


_E = _e_table()
# the angle is 2 pi r/T = _W r; cos - 1 to one term, sin to two
_W = 2.0 * np.pi / _T
_C2, _S3 = -(_W**2) / 2.0, -(_W**3) / 6.0


def cis2pi(x) -> np.ndarray:
    """e(x) = exp(2 pi i x) elementwise for float64 x, within 1e-15."""
    x = np.asarray(x, dtype=np.float64)
    return _cis2pi_into(x.size)(x.ravel()).reshape(x.shape)


def _cis2pi_into(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """e(x) for 1-d float64 x of at most n points, computed in buffers made
    here once and overwritten by the next call.

    A block walk that allocated and freed its block-sized temporaries per
    block made malloc hand the pages back and fault them in again: about 3x
    slower in a fresh process.  x - rint(x), its scaling u by T = 2^14 and
    r = u - rint(u) are exact, so the only errors are the table's 1.2e-16,
    the dropped cos term (pi/T)^4/24 < 5.7e-17, the sin truncation (about
    2e-21) and the last roundings of the factor and the complex product.
    """
    work = np.empty((3, n))
    zs = np.empty((2, n), np.complex128)

    def e(x: np.ndarray) -> np.ndarray:
        r, k, idx = work[:, : x.size]
        idx = idx.view(np.intp)
        out, f = zs[:, : x.size]
        np.rint(x, out=r)
        np.subtract(x, r, out=r)
        r *= _T
        np.rint(r, out=k)
        r -= k
        np.copyto(idx, k, casting="unsafe")
        # k mod T, so "clip" never clips; unlike "raise" it writes out directly
        idx &= _T - 1
        _E.take(idx, out=out, mode="clip")
        # e(r/T) = (1 + C2 r^2) + i r (W + S3 r^2), written into f's parts
        r2 = np.square(r, out=k)
        np.multiply(r2, _C2, out=f.real)
        f.real += 1.0
        np.multiply(r2, _S3, out=f.imag)
        f.imag += _W
        f.imag *= r
        out *= f
        return out

    return e


@dataclass(frozen=True)
class MonomialPhase:
    """Phase A * prod_i x_i^{e_i} + shift * prod_i x_i.

    ``exponents`` lists (variable index, exponent); the optional linear
    ``shift`` multiplies the plain product of all variables, which covers
    phases like m k^g l^g + k*l*h/d.
    """

    A: float
    exponents: tuple[tuple[int, float], ...]
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.A == 0:
            raise ValidationError("phase constant A must be nonzero")
        seen = set()
        for var, e in self.exponents:
            if var in seen:
                raise ValidationError(f"variable {var} listed twice in the phase")
            seen.add(var)
            if not math.isfinite(e):
                raise ValidationError("phase exponents must be finite")


@dataclass(frozen=True)
class SumInstance:
    """A (multi)linear exponential sum to evaluate.

    ``ranges`` holds one (M_i, dyadic) pair per variable: dyadic means
    M_i < m <= 2 M_i, otherwise 1 <= m <= M_i.  Weight callbacks must be
    vectorized and bounded by 1 in absolute value; ``weights`` supplies one
    per-variable callback (or None) and ``joint_weight`` receives all index
    arrays at once.
    """

    phase: MonomialPhase
    ranges: tuple[tuple[int, bool], ...]
    weights: Optional[tuple[Optional[Callable], ...]] = None
    joint_weight: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValidationError("at least one range is required")
        if any(M < 1 for M, _ in self.ranges):
            raise ValidationError("all range endpoints must be >= 1")
        if self.weights is not None and len(self.weights) != len(self.ranges):
            raise ValidationError("need one weight slot per variable")
        for var, _ in self.phase.exponents:
            if not (0 <= var < len(self.ranges)):
                raise ValidationError(f"phase variable {var} has no range")

    def variable_values(self, i: int, idx: np.ndarray) -> np.ndarray:
        """Variable i's float64 values at 0-based positions idx in its range."""
        M, dyadic = self.ranges[i]
        return (idx + (M + 1 if dyadic else 1)).astype(np.float64)

    def n_terms(self) -> int:
        out = 1
        for M, _ in self.ranges:
            out *= M
        return out

    def to_json(self) -> str:
        obj = {
            "phase": {
                "A": self.phase.A,
                "exponents": [[v, e] for v, e in self.phase.exponents],
            },
            "ranges": [[M, bool(d)] for M, d in self.ranges],
        }
        if self.phase.shift:
            obj["phase"]["shift"] = self.phase.shift
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "SumInstance":
        try:
            obj = json.loads(text)
            A = float(obj["phase"]["A"])
            exponents = tuple((int(v), float(e)) for v, e in obj["phase"]["exponents"])
            shift = float(obj["phase"].get("shift", 0.0))
            ranges = tuple((int(M), bool(d)) for M, d in obj["ranges"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sum instance ({type(exc).__name__}: {exc})") from exc
        return cls(phase=MonomialPhase(A, exponents, shift), ranges=ranges)


def eval_sum(instance: SumInstance, threads: int = 1) -> complex:
    """Direct float64 summation of sum a*b*e(phase) over the instance ranges.

    Each phase is the float64 A * prod x_i^{e_i} + shift * prod x_i, the
    factors multiplied in axis order, and each e(phase) is within 1e-15 of
    e at that float phase (``cis2pi``); rounding the phase itself moves a
    term by up to about 2 pi |phase| 2^-53, and a phase that overflows
    float64 is refused.  The lattice is walked in blocks of whole rows of the
    last axis, at most BLOCK points each (a longer row is split), and only a
    block's values and powers are formed, so the memory stays near BLOCK
    points whatever the ranges; block sums use pairwise accumulation and are
    combined with math.fsum, so the value does not depend on ``threads``.
    The default is one worker; with more, each takes a contiguous stripe of
    blocks.
    """
    if threads < 1:
        raise ValidationError(f"thread count {threads} must be >= 1")
    check_range(instance.n_terms(), 1, TERM_GUARD, "term", name="terms")

    exps = dict(instance.phase.exponents)

    def axis(i: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x^0 = 1 and multiplying by 1 is exact, so an axis without an
        # exponent leaves every phase as it was
        v = instance.variable_values(i, idx)
        return v, v ** exps.get(i, 0.0)

    A, shift = instance.phase.A, instance.phase.shift
    shape = tuple(M for M, _ in instance.ranges)
    *lead_shape, L = shape
    with np.errstate(over="ignore"):
        ends = [axis(i, np.array([0, M - 1])) for i, M in enumerate(shape)]
    # the largest |phase|, multiplied in the order the blocks multiply: every
    # factor is positive and monotone along its axis and rounding is
    # monotone, so no partial product of a point exceeds this one's
    largest = math.prod((float(max(p)) for _, p in ends), start=abs(A))
    largest += abs(shift) * math.prod(float(v[1]) for v, _ in ends)
    if not math.isfinite(largest):
        raise ValidationError("the phase overflows float64 on the instance ranges")

    rows = math.prod(lead_shape)
    k = max(BLOCK // L, 1)
    blocks = [(r, min(r + k, rows), s, min(s + BLOCK, L)) for r in range(0, rows, k) for s in range(0, L, BLOCK)]
    last = axis(len(shape) - 1, np.arange(L)) if L <= BLOCK else None  # shared by every block
    weighted = instance.weights is not None or instance.joint_weight is not None

    def block_value(e: Callable, buf: np.ndarray, r0: int, r1: int, s0: int, s1: int) -> complex:
        idx = np.unravel_index(np.arange(r0, r1), lead_shape) if lead_shape else ()
        lead = [axis(i, c) for i, c in enumerate(idx)]
        lv, lp = last if last is not None else axis(len(shape) - 1, np.arange(s0, s1))
        factor = np.full(r1 - r0, A)
        for _, p in lead:
            factor = factor * p
        phase = buf[: (r1 - r0) * (s1 - s0)]
        np.multiply.outer(factor, lp, out=phase.reshape(r1 - r0, s1 - s0))
        if shift:
            prod = np.ones(r1 - r0)
            for v, _ in lead:
                prod = prod * v
            phase += shift * np.multiply.outer(prod, lv).ravel()
        term = e(phase)
        if weighted:
            grids = [np.repeat(v, s1 - s0) for v, _ in lead]
            grids.append(np.tile(lv, r1 - r0))
            for i, w in enumerate(instance.weights or ()):
                if w is not None:
                    term = term * _bounded(w(grids[i]))
            if instance.joint_weight is not None:
                term = term * _bounded(instance.joint_weight(*grids))
        return complex(np.sum(term))

    def stripe_values(stripe: list, e: Callable, buf: np.ndarray) -> list[complex]:
        return [block_value(e, buf, *b) for b in stripe]

    # each stripe reuses one set of block buffers for all its blocks; this
    # thread makes them all, so no worker thread grows a malloc arena of its own
    size = min(BLOCK, instance.n_terms())
    workers = min(threads, len(blocks))
    step = -(-len(blocks) // workers)
    stripes = [blocks[i : i + step] for i in range(0, len(blocks), step)]
    es = [_cis2pi_into(size) for _ in stripes]
    bufs = [np.empty(size) for _ in stripes]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(stripe_values, stripes, es, bufs))
    else:
        parts = map(stripe_values, stripes, es, bufs)
    partials = [p for part in parts for p in part]

    # math.fsum is correctly rounded: the value does not depend on the order
    # of the partials, hence not on the thread count
    return complex(math.fsum(p.real for p in partials), math.fsum(p.imag for p in partials))


def _bounded(w) -> np.ndarray:
    w = np.asarray(w)
    if w.size and float(np.max(np.abs(w))) > 1.0 + 1e-12:
        raise ValidationError("weight callbacks must stay bounded by 1")
    return w


# ---------------------------------------------------------------------------
# closed-form bound calculators
# ---------------------------------------------------------------------------

def _check_finite(**args: float) -> None:
    """The bound calculators refuse nan, which is false under every
    comparison, and inf, which makes the bound inf or nan."""
    for name, v in args.items():
        if not math.isfinite(v):
            raise ValidationError(f"{name}={v} must be finite")


def bound_second_derivative(N: float, lam: float) -> float:
    """Van der Corput bound N*lam^(1/2) + lam^(-1/2) for |f''| ~ lam."""
    _check_finite(N=N, lam=lam)
    if lam <= 0:
        raise ValidationError(f"lambda={lam} must be positive")
    return N * math.sqrt(lam) + 1.0 / math.sqrt(lam)


def bound_third_derivative(N: float, lam: float) -> float:
    """Van der Corput bound N*lam^(1/6) + N^(3/4) + N^(1/4)*lam^(-1/4) for |f'''| ~ lam."""
    _check_finite(N=N, lam=lam)
    if lam <= 0:
        raise ValidationError(f"lambda={lam} must be positive")
    return N * lam ** (1.0 / 6.0) + N**0.75 + N**0.25 * lam**-0.25


def bound_kusmin_landau(N: float, lam: float) -> float:
    """Kusmin-Landau bound cot(pi*lam/2), valid for monotone f' staying at
    distance >= lam from the integers; independent of the range length."""
    _check_finite(N=N, lam=lam)
    if not (0.0 < lam <= 0.5):
        raise ValidationError(f"lambda={lam} outside (0, 1/2]")
    return 1.0 / math.tan(math.pi * lam / 2.0)


_TRILINEAR_TERMS = (
    # (exponent of M, exponent of N, exponent of F)
    (5 / 8, 7 / 8, 1 / 8),
    (1.0, 7 / 8, 0.0),
    (37 / 49, 46 / 49, 3 / 49),
    (23 / 29, 27 / 29, 3 / 58),
    (43 / 58, 27 / 29, 2 / 29),
    (115 / 152, 7 / 8, 25 / 304),
    (41 / 54, 25 / 27, 7 / 108),
    (5 / 6, 1.0, 0.0),
    (11 / 10, 1.0, -1 / 4),
)


def bound_trilinear(M: float, N: float, F: float) -> float:
    """Nine-term bound for the trilinear monomial sum, with N = M1*M2 and
    F the size of the phase over the ranges."""
    _check_finite(M=M, N=N, F=F)
    if M < 1 or N < 1:
        raise ValidationError("M and N must be >= 1")
    if F <= 0:
        raise ValidationError("F must be positive")
    return sum(M**a * N**b * F**c for a, b, c in _TRILINEAR_TERMS)


def balance_terms(
    C_terms: Sequence[tuple[float, float]],
    D_terms: Sequence[tuple[float, float]],
    Q_hi: float,
    Q_lo: Optional[float] = None,
) -> tuple[float, float]:
    """Optimal-split bound for L(Q) = sum C_j Q^{c_j} + sum D_k Q^{-d_k}.

    Returns (bound, Q1) where

        bound = sum_{j,k} (C_j^{d_k} D_k^{c_j})^{1/(c_j+d_k)}
                + sum_j C_j Q_lo^{c_j}          (only when Q_lo is given)
                + sum_k D_k Q_hi^{-d_k}

    and Q1 is a witness in [Q_lo, Q_hi] located by grid-refined
    minimization of L, with L(Q1) within the asserted multiple of bound.
    """
    if not C_terms or not D_terms:
        raise ValidationError("both term lists must be nonempty")
    if any(C <= 0 or c <= 0 for C, c in C_terms) or any(D <= 0 or d <= 0 for D, d in D_terms):
        raise ValidationError("all coefficients and exponents must be positive")
    if Q_hi <= 0 or (Q_lo is not None and not (0 < Q_lo <= Q_hi)):
        raise ValidationError("need 0 < Q_lo <= Q_hi")

    bound = sum(
        (C ** d * D ** c) ** (1.0 / (c + d)) for C, c in C_terms for D, d in D_terms
    )
    if Q_lo is not None:
        bound += sum(C * Q_lo**c for C, c in C_terms)
    bound += sum(D * Q_hi**-d for D, d in D_terms)

    def L(q: np.ndarray) -> np.ndarray:
        out = np.zeros_like(q)
        for C, c in C_terms:
            out += C * q**c
        for D, d in D_terms:
            out += D * q**-d
        return out

    lo = Q_lo
    if lo is None:
        crossings = [(D / C) ** (1.0 / (c + d)) for C, c in C_terms for D, d in D_terms]
        lo = min(min(crossings) / 10.0, Q_hi)
    q1 = _grid_minimize(L, lo, Q_hi)
    return bound, q1


def _grid_minimize(L, lo: float, hi: float, points: int = 256, rounds: int = 4) -> float:
    for _ in range(rounds):
        grid = np.geomspace(lo, hi, points) if lo > 0 else np.linspace(lo, hi, points)
        vals = L(grid)
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, points - 1)]
    return float(grid[i])
