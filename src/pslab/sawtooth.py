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
from .expsum import cis2pi

VAALER_H_GUARD = 10**5
# len(t) * H (point, frequency) pairs; the kernels' memory is O(len t), so
# this bounds their time.  At the limit, approx and majorant take 0.019-0.029
# s and erdos_turan_rhs 0.028-0.036 s at 10^5 points x H = 500, and each
# takes 0.010-0.022 s at 500 points x H = 10^5, with a whole-process peak RSS
# of 32-36 MB, 31 MB of it the interpreter, numpy and pslab (3 fresh
# processes each, 2-core Intel Xeon, numpy 2.4).
SAWTOOTH_CELLS_GUARD = 5 * 10**7
# the kernels take POINT_BLOCK points at a time, form the powers z^1..z^_M
# of each and reduce them against _GROUP rows of weights per GEMM.  From a
# sweep at both guard corners (CHANGES.md): _M = 32 tied 16 at 10^5 points
# x H = 500 and was 1.3-1.7x faster at 500 x 10^5, where 64 gained more but
# lost 20-45% at the first corner; _GROUP made no difference from 16 to 256;
# 2^11 points were up to 10% faster than 2^10 at 10^5 x 500 but double the rows
POINT_BLOCK = 1 << 10
_M = 32
_GROUP = 64


def psi(t):
    """psi(t) = {t} - 1/2, in [-1/2, 1/2); scalar or ndarray."""
    return t - np.floor(t) - 0.5


def _points(points) -> np.ndarray:
    """points as a 1-d float64 array, refused unless every one is finite:
    nan fails every comparison, and e(t) is nan at nan and at +-inf."""
    t = np.ravel(np.asarray(points, dtype=np.float64))
    if t.size and not (np.isfinite(t.min()) and np.isfinite(t.max())):
        raise ValidationError("every point must be finite")
    return t


def _degree(H) -> int:
    """H as an int, refused unless it is an integer >= 1."""
    if isinstance(H, bool) or not isinstance(H, (int, np.integer)) or H < 1:
        raise ValidationError(f"H={H!r} must be an integer >= 1")
    return int(H)


def _geometric_rows(out: np.ndarray, first, ratio: np.ndarray) -> None:
    """out[i] = first * ratio^i for every row i, one complex multiply per row."""
    out[0] = first
    for i in range(1, len(out)):
        np.multiply(out[i - 1], ratio, out=out[i])


def _power_rows(t: np.ndarray, H: int) -> Iterator[np.ndarray]:
    """Once points x H passes its guard: for each block of at most
    POINT_BLOCK points of t in order, Z with Z[i] = z^(i+1) for
    i < min(H, _M), where z = e(t) per point.

    z comes from expsum.cis2pi, which reduces t mod 1 exactly before the
    angle is formed; every further row is one complex multiply (angle
    addition).  Z lives in one buffer that the next block overwrites.
    """
    check_range(t.size * H, 0, SAWTOOTH_CELLS_GUARD, "point-frequency", name="points x H")
    m, n = min(H, _M), min(t.size, POINT_BLOCK)

    def rows() -> Iterator[np.ndarray]:
        buf = np.empty(m * n, np.complex128)
        for lo in range(0, t.size, POINT_BLOCK):
            z = cis2pi(t[lo : lo + POINT_BLOCK])
            Z = buf[: m * z.size].reshape(m, z.size)
            _geometric_rows(Z, z, z)
            yield Z

    return rows()


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
    """sum_h weights[h-1] * part(e(th)) for h = 1..len(weights), per point of t.

    With h = jm + i + 1 (i < m) and the weights laid out as the rows W[j]
    of an m-column matrix, the sum is sum_j (z^m)^j (W[j] @ Z), Z from
    _power_rows.  The products W[j] @ Z come from one real GEMM per _GROUP
    rows, each a sum of m terms, so no BLAS thread count or block size
    changes them; the outer sum is Horner's rule in z^m, walked from the
    top group down, so the working memory stays a few blocks of points
    whatever H is.
    """
    t = _points(t)
    H = weights.size
    rows = _power_rows(t, H)
    m, n = min(H, _M), min(t.size, POINT_BLOCK)
    W = np.zeros(-(-H // m) * m)
    W[:H] = weights
    W = W.reshape(-1, m)
    out = np.empty(t.size)
    rbuf = np.empty(min(_GROUP, len(W)) * 2 * n)
    acc = np.empty(n, np.complex128)
    lo = 0
    for Z in rows:
        k = Z.shape[1]
        a, zm, Zf = acc[:k], Z[m - 1], Z.view(np.float64)
        a[:] = 0.0
        for j1 in range(len(W), 0, -_GROUP):
            j0 = max(j1 - _GROUP, 0)
            R = np.matmul(W[j0:j1], Zf, out=rbuf[: (j1 - j0) * 2 * k].reshape(j1 - j0, 2 * k))
            for r in R.view(np.complex128)[::-1]:
                a *= zm
                a += r
        out[lo : lo + k] = part(a)
        lo += k
    return out


def vaaler_kernel(H: int) -> VaalerKernel:
    """Construct the degree-H sawtooth approximation and its majorant.

    The approximation coefficients are the Fourier coefficients of psi
    damped by the multiplier pi*t*(1-t)*cot(pi*t) + t at t = h/(H+1); the
    majorant coefficients are d_h = (1 - |h|/(H+1)) / (2H+2).
    """
    H = _degree(H)
    if H > VAALER_H_GUARD:
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
    t = _points(points)
    if t.size == 0:
        raise ValidationError("discrepancy_lhs needs at least one point")
    frac = t - np.floor(t)
    return float(np.sum(frac <= beta) - t.size * beta)


def erdos_turan_rhs(points, H: int) -> float:
    """Explicit-constant discrepancy majorant K/(H+1) + 3 sum_h |S_h|/h.

    S_h = sum_k e(t_k h); with the constants (1, 3) this dominates
    |discrepancy_lhs| for every beta.
    """
    H = _degree(H)
    t = _points(points)
    if t.size == 0:
        raise ValidationError("erdos_turan_rhs needs at least one point")
    rows = _power_rows(t, H)  # the points x H guard, before S is allocated
    # S_h for h = jm + i + 1 is sum_k (z_k^m)^j Z[i, k]: the rows (z^m)^j,
    # one complex multiply each, times Z^T in one GEMM per _GROUP rows
    m = min(H, _M)
    S = np.zeros((-(-H // m), m), dtype=np.complex128)
    g = min(_GROUP, len(S))
    pbuf = np.empty(g * min(t.size, POINT_BLOCK), np.complex128)
    for Z in rows:
        P, zm = pbuf[: g * Z.shape[1]].reshape(g, -1), Z[m - 1]
        for j0 in range(0, len(S), g):
            _geometric_rows(P, P[-1] * zm if j0 else 1.0, zm)
            Pj = P[: len(S) - j0]
            S[j0 : j0 + len(Pj)] += Pj @ Z.T
    absS = np.abs(S.ravel()[:H])
    del S
    absS /= np.arange(1, H + 1, dtype=np.float64)
    return float(t.size / (H + 1) + 3.0 * np.sum(absS))
