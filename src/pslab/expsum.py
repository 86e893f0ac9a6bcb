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
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError, check_range
from .pscore import CHUNK

TERM_GUARD = 10**8


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
    seed: Optional[int] = None

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

    def variable_values(self, i: int) -> np.ndarray:
        M, dyadic = self.ranges[i]
        return np.arange(M + 1, 2 * M + 1) if dyadic else np.arange(1, M + 1)

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
            "seed": self.seed,
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
            seed = obj.get("seed")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sum instance ({type(exc).__name__}: {exc})") from exc
        return cls(phase=MonomialPhase(A, exponents, shift), ranges=ranges, seed=seed)


@dataclass(frozen=True)
class BoundReport:
    """|S| measured against a closed-form bound."""

    observed: float
    bound: float
    meta: str = ""
    ratio: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", self.observed / self.bound if self.bound > 0 else math.inf)


def eval_sum(instance: SumInstance, threads: Optional[int] = None) -> complex:
    """Exact direct summation of sum a*b*e(phase) over the instance ranges.

    Terms are evaluated in fixed chunks of 2^16 lattice points; chunk sums
    use pairwise accumulation and are combined with math.fsum, so the value
    is deterministic for any thread count.  The pool has one worker per CPU
    unless ``threads`` says otherwise, and never more than there are chunks;
    a pool of one runs inline.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValidationError(f"thread count {threads} must be >= 1")
    check_range(instance.n_terms(), 1, TERM_GUARD, "term", name="terms")

    axes = [instance.variable_values(i).astype(np.float64) for i in range(len(instance.ranges))]
    exps = dict(instance.phase.exponents)

    def chunk_value(flat_lo: int, flat_hi: int) -> complex:
        idx = np.arange(flat_lo, flat_hi)
        coords = np.unravel_index(idx, shape)
        grids = [axes[i][coords[i]] for i in range(len(axes))]
        mono = np.full(idx.shape, instance.phase.A, dtype=np.float64)
        for i, g in enumerate(grids):
            if i in exps:
                mono = mono * g ** exps[i]
        phase = mono
        if instance.phase.shift:
            prod = grids[0].copy()
            for g in grids[1:]:
                prod = prod * g
            phase = phase + instance.phase.shift * prod
        term = np.exp(2j * np.pi * np.mod(phase, 1.0))
        if instance.weights is not None:
            for i, w in enumerate(instance.weights):
                if w is not None:
                    wv = np.asarray(w(grids[i]))
                    _check_bounded(wv)
                    term = term * wv
        if instance.joint_weight is not None:
            wv = np.asarray(instance.joint_weight(*grids))
            _check_bounded(wv)
            term = term * wv
        return complex(np.sum(term))

    shape = tuple(a.size for a in axes)
    total = int(np.prod(shape))
    bounds = [(lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK)]

    workers = min(threads, len(bounds))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda b: chunk_value(*b), bounds))
    else:
        partials = [chunk_value(*b) for b in bounds]

    # math.fsum is correctly rounded: the value does not depend on the order
    # of the partials, hence not on the thread count
    return complex(math.fsum(p.real for p in partials), math.fsum(p.imag for p in partials))


def _check_bounded(w: np.ndarray) -> None:
    if w.size and float(np.max(np.abs(w))) > 1.0 + 1e-12:
        raise ValidationError("weight callbacks must stay bounded by 1")


def ratio_report(instance: SumInstance, bound: float, meta: str = "") -> BoundReport:
    """Evaluate |S| for the instance and package it against a bound."""
    return BoundReport(abs(eval_sum(instance)), bound, meta)


# ---------------------------------------------------------------------------
# closed-form bound calculators
# ---------------------------------------------------------------------------

def bound_second_derivative(N: float, lam: float) -> float:
    """Van der Corput bound N*lam^(1/2) + lam^(-1/2) for |f''| ~ lam."""
    if lam <= 0:
        raise ValidationError(f"lambda={lam} must be positive")
    return N * math.sqrt(lam) + 1.0 / math.sqrt(lam)


def bound_third_derivative(N: float, lam: float) -> float:
    """Van der Corput bound N*lam^(1/6) + N^(3/4) + N^(1/4)*lam^(-1/4) for |f'''| ~ lam."""
    if lam <= 0:
        raise ValidationError(f"lambda={lam} must be positive")
    return N * lam ** (1.0 / 6.0) + N**0.75 + N**0.25 * lam**-0.25


def bound_kusmin_landau(N: float, lam: float) -> float:
    """Kusmin-Landau bound cot(pi*lam/2), valid for monotone f' staying at
    distance >= lam from the integers; independent of the range length."""
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
