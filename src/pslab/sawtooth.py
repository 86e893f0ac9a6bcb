"""The sawtooth function psi, its Vaaler-style trigonometric approximation,
and Erdős–Turán discrepancy machinery.

The approximation contract is the pointwise inequality

    |psi(t) - sum_{0<|h|<=H} c_h e(th)| <= sum_{|h|<=H} d_h e(th)

with |c_h| <= 1/(pi |h|) and d_h <= 1/(H+1); the majorant on the right is a
scaled Fejér kernel and hence real and nonnegative everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError

VAALER_H_GUARD = 10**5
# len(t) * H matrix cells; at the limit approx and majorant peak at 0.8 GB
# (float64) and erdos_turan_rhs at 1.6 GB (complex128), measured at 10^5 x 500
SAWTOOTH_CELLS_GUARD = 5 * 10**7


def psi(t):
    """psi(t) = {t} - 1/2, in [-1/2, 1/2); scalar or ndarray."""
    return t - np.floor(t) - 0.5


def _check_cells(points: int, H: int) -> None:
    if points * H > SAWTOOTH_CELLS_GUARD:
        raise GuardError(
            f"{points} points x H={H} exceeds the guard of {SAWTOOTH_CELLS_GUARD:.0e} matrix cells"
        )


def _multiplier(t: np.ndarray) -> np.ndarray:
    # pi*t*(1-t)*cot(pi*t) + t, the smoothing applied to the Fourier
    # coefficients of psi; tends to 1 at 0 and to 0 at 1
    return np.pi * t * (1.0 - t) / np.tan(np.pi * t) + t


@dataclass(frozen=True)
class VaalerKernel:
    """Degree-H approximation of psi plus its nonnegative majorant.

    c_coeffs maps h (0 < |h| <= H) to the approximation coefficient, and
    d_coeffs maps |h| <= H to the (real, symmetric) majorant coefficient.
    """

    H: int
    c_coeffs: dict[int, complex]
    d_coeffs: dict[int, float]

    def approx(self, t) -> np.ndarray:
        """sum c_h e(th); real-valued since c_{-h} = conj(c_h)."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        _check_cells(t.size, self.H)
        h = np.arange(1, self.H + 1, dtype=np.float64)
        w = np.array([self.c_coeffs[k].imag for k in range(1, self.H + 1)])
        # purely imaginary coefficients make the sum a sine series
        return -2.0 * np.sin(2.0 * np.pi * np.outer(t, h)) @ w

    def majorant(self, t) -> np.ndarray:
        """sum d_h e(th) >= |psi - approx| pointwise."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        _check_cells(t.size, self.H)
        h = np.arange(1, self.H + 1, dtype=np.float64)
        w = np.array([self.d_coeffs[k] for k in range(1, self.H + 1)])
        return self.d_coeffs[0] + 2.0 * np.cos(2.0 * np.pi * np.outer(t, h)) @ w


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
    mult = _multiplier(hs / K)
    c: dict[int, complex] = {}
    d: dict[int, float] = {0: 1.0 / (2 * K)}
    for h, m in zip(hs, mult):
        coeff = complex(0.0, m / (2.0 * np.pi * h))  # -Phi(h/K)/(2 pi i h) = i Phi/(2 pi h)
        c[int(h)] = coeff
        c[-int(h)] = coeff.conjugate()
        d[int(h)] = d[-int(h)] = (1.0 - h / K) / (2 * K)
    return VaalerKernel(H, c, d)


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
    t = np.asarray(points, dtype=np.float64)
    if t.size == 0:
        raise ValidationError("erdos_turan_rhs needs at least one point")
    _check_cells(t.size, H)
    hs = np.arange(1, H + 1, dtype=np.float64)
    S = np.abs(np.exp(2j * np.pi * np.outer(t, hs)).sum(axis=0))
    return float(t.size / (H + 1) + 3.0 * np.sum(S / hs))
