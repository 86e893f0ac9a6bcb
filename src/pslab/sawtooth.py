"""The sawtooth function psi, its Vaaler-style trigonometric approximation,
and Erdős–Turán discrepancy machinery.

The approximation contract is the pointwise inequality

    |psi(t) - sum_{0<|h|<=H} c_h e(th)| <= sum_{|h|<=H} d_h e(th)

with |c_h| <= 1/(pi |h|) and d_h <= 1/(H+1); the majorant on the right is a
scaled Fejér kernel and hence real and nonnegative everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError, check_range
from .expsum import BLOCK, cis2pi

VAALER_H_GUARD = 10**5
# len(t) * H (point, frequency) pairs; the kernels' memory is O(len t), so
# this bounds their time.  At the limit, each of approx, majorant and
# erdos_turan_rhs takes 0.07-0.16 s at 10^5 points x H = 500 and 0.30-0.56 s
# at 500 points x H = 10^5 (per-h loop overhead), with a whole-process peak
# RSS of 34-35 MB, 29 MB of it the interpreter, numpy and pslab (fresh
# process each, 2-core Intel Xeon, numpy 2.4).
SAWTOOTH_CELLS_GUARD = 5 * 10**7


def psi(t):
    """psi(t) = {t} - 1/2, in [-1/2, 1/2); scalar or ndarray."""
    return t - np.floor(t) - 0.5


def _blocks(t: np.ndarray, H: int) -> Iterator[slice]:
    """Slices of at most BLOCK points covering t, once points x H passes its guard."""
    check_range(t.size * H, 0, SAWTOOTH_CELLS_GUARD, "point-frequency", name="points x H")
    return (slice(lo, lo + BLOCK) for lo in range(0, t.size, BLOCK))


def _powers(t: np.ndarray, H: int) -> Iterator[np.ndarray]:
    """Yield z^h for h = 1..H, where z = e(t) = exp(2 pi i t) per point.

    z comes from expsum.cis2pi, which reduces t mod 1 exactly before the
    angle is formed; every further power is one complex multiply (angle
    addition), and the error of z^h grows about linearly in h.  One buffer
    is updated in place and yielded each time: read it before the next step.
    """
    z = cis2pi(t)
    zh = np.ones_like(z)
    for _ in range(H):
        zh *= z
        yield zh


def _multiplier(t: np.ndarray) -> np.ndarray:
    # pi*t*(1-t)*cot(pi*t) + t, the smoothing applied to the Fourier
    # coefficients of psi; tends to 1 at 0 and to 0 at 1
    return np.pi * t * (1.0 - t) / np.tan(np.pi * t) + t


@dataclass(frozen=True, eq=False)
class VaalerKernel:
    """Degree-H approximation of psi plus its nonnegative majorant.

    c_imag[h-1] is Im c_h for h = 1..H (every c_h is purely imaginary and
    c_{-h} = conj(c_h)); d[h] is the real, symmetric majorant coefficient
    d_h = d_{-h} for h = 0..H.
    """

    H: int
    c_imag: np.ndarray
    d: np.ndarray

    def approx(self, t) -> np.ndarray:
        """sum c_h e(th) = -2 sum_{h>=1} Im(c_h) sin(2 pi h t), real since c_{-h} = conj(c_h)."""
        return -2.0 * _series(t, self.c_imag, np.imag)

    def majorant(self, t) -> np.ndarray:
        """sum d_h e(th) >= |psi - approx| pointwise."""
        return self.d[0] + 2.0 * _series(t, self.d[1:], np.real)


def _series(t, weights: np.ndarray, part) -> np.ndarray:
    """sum_h weights[h-1] * part(e(th)) for h = 1..len(weights), per point of t."""
    t = np.ravel(np.asarray(t, dtype=np.float64))
    acc = np.zeros(t.shape)
    for b in _blocks(t, weights.size):
        a = acc[b]
        for w, zh in zip(weights, _powers(t[b], weights.size)):
            a += w * part(zh)
    return acc


def vaaler_kernel(H: int) -> VaalerKernel:
    """Construct the degree-H sawtooth approximation and its majorant.

    The approximation coefficients are the Fourier coefficients of psi
    damped by the multiplier pi*t*(1-t)*cot(pi*t) + t at t = h/(H+1); the
    majorant coefficients are d_h = (1 - |h|/(H+1)) / (2H+2).
    """
    if not (1 <= H <= VAALER_H_GUARD):
        raise ValidationError(f"H={H} outside [1, {VAALER_H_GUARD}]")
    K = H + 1
    hs = np.arange(1, H + 1)
    # c_h = -Phi(h/K)/(2 pi i h) = i Phi/(2 pi h)
    c_imag = _multiplier(hs / K) / (2.0 * np.pi * hs)
    d = np.concatenate([[1.0 / (2 * K)], (1.0 - hs / K) / (2 * K)])
    return VaalerKernel(H, c_imag, d)


def discrepancy_lhs(points, beta: float) -> float:
    """#{k : {t_k} <= beta} - K*beta for the point sequence (signed)."""
    if not (0.0 < beta < 1.0):
        raise ValidationError(f"beta={beta} must lie in (0, 1)")
    t = np.asarray(points, dtype=np.float64)
    if t.size == 0:
        raise ValidationError("discrepancy_lhs needs at least one point")
    frac = t - np.floor(t)
    return float(np.sum(frac <= beta) - t.size * beta)


def erdos_turan_rhs(points, H: int) -> float:
    """Explicit-constant discrepancy majorant K/(H+1) + 3 sum_h |S_h|/h.

    S_h = sum_k e(t_k h); with the constants (1, 3) this dominates
    |discrepancy_lhs| for every beta.
    """
    if H < 1:
        raise ValidationError(f"H={H} must be >= 1")
    t = np.ravel(np.asarray(points, dtype=np.float64))
    if t.size == 0:
        raise ValidationError("erdos_turan_rhs needs at least one point")
    blocks = _blocks(t, H)  # the points x H guard, before S is allocated
    S = np.zeros(H, dtype=np.complex128)
    for b in blocks:
        for h, zh in enumerate(_powers(t[b], H)):
            S[h] += zh.sum()
    hs = np.arange(1, H + 1, dtype=np.float64)
    return float(t.size / (H + 1) + 3.0 * np.sum(np.abs(S) / hs))
